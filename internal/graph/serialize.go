package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary CSR format, little-endian:
//
//	magic   uint64  'P','M','G','R','C','S','R','1'
//	flags   uint64  bit0: weighted
//	nodes   uint64
//	edges   uint64
//	offsets (nodes+1) * int64
//	edges   edges * uint32
//	weights edges * uint32   (if weighted)
//
// This mirrors the on-disk CSR binaries the paper's Table 3 sizes refer to.
const csrMagic = 0x3152534352474d50 // "PMGRCSR1" little-endian

const flagWeighted = 1 << 0

// WriteCSR serializes g's out-direction to w.
func WriteCSR(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := [4]uint64{csrMagic, 0, uint64(g.NumNodes()), uint64(g.NumEdges())}
	if g.HasWeights() {
		hdr[1] |= flagWeighted
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("graph: write header: %w", err)
		}
	}
	if err := writeSlice(bw, g.OutOffsets); err != nil {
		return fmt.Errorf("graph: write offsets: %w", err)
	}
	if err := writeSlice(bw, g.OutEdges); err != nil {
		return fmt.Errorf("graph: write edges: %w", err)
	}
	if g.HasWeights() {
		if err := writeSlice(bw, g.OutWeights); err != nil {
			return fmt.Errorf("graph: write weights: %w", err)
		}
	}
	return bw.Flush()
}

// MaxCSRBytes caps the implied in-memory size of a deserialized graph
// (offsets + edges + weights). Table 3's largest input (wdc12) is ~2 TB of
// CSR; headers implying more than twice that are treated as corrupt or
// hostile rather than honored with a fatal allocation.
const MaxCSRBytes = int64(4) << 40

// impliedCSRBytes returns the bytes a header's node/edge counts commit us
// to allocating, or -1 on overflow.
func impliedCSRBytes(nodes uint64, edges uint64, weighted bool) int64 {
	offBytes := (nodes + 1) * 8
	edgeBytes := edges * 4
	if weighted {
		edgeBytes *= 2
	}
	total := offBytes + edgeBytes
	if offBytes/8 != nodes+1 || (edges > 0 && edgeBytes/edges < 4) || total < offBytes {
		return -1
	}
	if total > uint64(MaxCSRBytes) {
		return -1
	}
	return int64(total)
}

// ReadCSR deserializes a graph written by WriteCSR and validates it. A
// header whose node or edge counts imply an absurd allocation (overflow,
// node IDs beyond uint32, or more than MaxCSRBytes of CSR) is rejected
// before any slice is allocated, so a corrupt or hostile file produces an
// error instead of an OOM.
func ReadCSR(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if hdr[0] != csrMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", hdr[0])
	}
	if hdr[1]&^uint64(flagWeighted) != 0 {
		return nil, fmt.Errorf("graph: unknown header flags %#x", hdr[1])
	}
	if hdr[2] > uint64(^uint32(0)) {
		return nil, fmt.Errorf("graph: node count %d exceeds 32-bit node IDs", hdr[2])
	}
	if impliedCSRBytes(hdr[2], hdr[3], hdr[1]&flagWeighted != 0) < 0 {
		return nil, fmt.Errorf("graph: header implies absurd size (nodes=%d edges=%d)", hdr[2], hdr[3])
	}
	nodes, edges := int(hdr[2]), int64(hdr[3])
	g := &Graph{}
	var err error
	if g.OutOffsets, err = readSlice[int64](br, int64(nodes)+1); err != nil {
		return nil, fmt.Errorf("graph: read offsets: %w", err)
	}
	if g.OutEdges, err = readSlice[uint32](br, edges); err != nil {
		return nil, fmt.Errorf("graph: read edges: %w", err)
	}
	if hdr[1]&flagWeighted != 0 {
		if g.OutWeights, err = readSlice[uint32](br, edges); err != nil {
			return nil, fmt.Errorf("graph: read weights: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunk is the element granularity of incremental deserialization:
// slices grow as data actually arrives, so a truncated file whose header
// claims terabytes errors out at EOF instead of committing the full
// claimed allocation up front.
const readChunk = 1 << 20

func readSlice[T int64 | uint32 | uint8](r io.Reader, n int64) ([]T, error) {
	out := make([]T, 0, min(n, readChunk))
	for int64(len(out)) < n {
		c := min(n-int64(len(out)), readChunk)
		out = append(out, make([]T, c)...)
		if err := binary.Read(r, binary.LittleEndian, out[int64(len(out))-c:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeSlice is readSlice's serializer twin: binary.Write stages a whole
// reflect-built copy of its argument, so passing a full CSR slice doubles
// peak memory on large graphs. Writing in readChunk-sized pieces bounds
// the staging copy at one chunk.
func writeSlice[T int64 | uint32 | uint8](w io.Writer, s []T) error {
	for len(s) > 0 {
		c := min(int64(len(s)), readChunk)
		if err := binary.Write(w, binary.LittleEndian, s[:c]); err != nil {
			return err
		}
		s = s[c:]
	}
	return nil
}

// --- compressed (.csrz) form ---

// Binary compressed-CSR format, little-endian:
//
//	magic   uint64  'P','M','G','R','C','S','Z','1'
//	flags   uint64  bit0: weighted
//	nodes   uint64
//	edges   uint64
//	bytes   uint64  length of the block data
//	offsets (nodes+1) * int64   byte offsets into the block data
//	data    bytes               delta+varint blocks (see compressed.go)
//
// Degrees are the leading varint of each block, so the file is
// self-contained without an edge-offset array.
const csrzMagic = 0x315A534352474D50 // "PMGRCSZ1" little-endian

// WriteCSRZ serializes g's out-direction in compressed block form,
// encoding it first if the graph has no cached compressed form.
func WriteCSRZ(w io.Writer, g *Graph) error {
	z := g.CompressOut()
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := [5]uint64{csrzMagic, 0, uint64(z.NumNodes()), uint64(z.NumEdges()), uint64(len(z.Data))}
	if z.Weighted() {
		hdr[1] |= flagWeighted
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("graph: write csrz header: %w", err)
		}
	}
	if err := writeSlice(bw, z.ByteOffsets); err != nil {
		return fmt.Errorf("graph: write csrz offsets: %w", err)
	}
	if err := writeSlice(bw, z.Data); err != nil {
		return fmt.Errorf("graph: write csrz data: %w", err)
	}
	return bw.Flush()
}

// ReadCSRZ deserializes a graph written by WriteCSRZ, with the same
// hostile-header hardening as ReadCSR: headers implying absurd
// allocations (for the file's own arrays or for the decoded raw CSR) are
// rejected before anything is allocated, slices grow only as data
// arrives, and the varint stream is fully validated during decode. The
// returned graph holds both the raw form (kernels index it) and the
// compressed blocks (the compressed storage backend charges them).
func ReadCSRZ(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [5]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: read csrz header: %w", err)
		}
	}
	if hdr[0] != csrzMagic {
		return nil, fmt.Errorf("graph: bad csrz magic %#x", hdr[0])
	}
	if hdr[1]&^uint64(flagWeighted) != 0 {
		return nil, fmt.Errorf("graph: unknown csrz header flags %#x", hdr[1])
	}
	if hdr[2] > uint64(^uint32(0)) {
		return nil, fmt.Errorf("graph: csrz node count %d exceeds 32-bit node IDs", hdr[2])
	}
	nodes, edges, dataBytes := hdr[2], hdr[3], hdr[4]
	weighted := hdr[1]&flagWeighted != 0
	// The decoded raw CSR must itself be plausible: decoding materializes
	// offsets, edges, and weights.
	if impliedCSRBytes(nodes, edges, weighted) < 0 {
		return nil, fmt.Errorf("graph: csrz header implies absurd size (nodes=%d edges=%d)", nodes, edges)
	}
	// The file's own arrays must fit the cap too...
	offBytes := (nodes + 1) * 8
	if offBytes/8 != nodes+1 || offBytes+dataBytes < offBytes || offBytes+dataBytes > uint64(MaxCSRBytes) {
		return nil, fmt.Errorf("graph: csrz header implies absurd size (nodes=%d data=%d)", nodes, dataBytes)
	}
	// ...and the data cannot be shorter than its minimal encoding: one
	// degree byte per vertex plus one delta byte (and one weight byte)
	// per edge. impliedCSRBytes bounded nodes and edges, so no overflow.
	minData := nodes + edges
	if weighted {
		minData += edges
	}
	if dataBytes < minData {
		return nil, fmt.Errorf("graph: csrz data %d bytes cannot hold %d nodes, %d edges", dataBytes, nodes, edges)
	}
	byteOffs, err := readSlice[int64](br, int64(nodes)+1)
	if err != nil {
		return nil, fmt.Errorf("graph: read csrz offsets: %w", err)
	}
	for v := uint64(0); v < nodes; v++ {
		if byteOffs[v+1] < byteOffs[v] {
			return nil, fmt.Errorf("graph: csrz ByteOffsets not monotone at node %d", v)
		}
	}
	data, err := readSlice[uint8](br, int64(dataBytes))
	if err != nil {
		return nil, fmt.Errorf("graph: read csrz data: %w", err)
	}
	z := &CompressedCSR{weighted: weighted, ByteOffsets: byteOffs, Data: data}
	return z.decode(int(nodes), int64(edges))
}
