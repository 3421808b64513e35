package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// This file implements the byte-compressed CSR storage backend: per-vertex
// neighbor blocks holding delta-encoded, varint-packed node IDs
// (GBBS/Ligra+ style). On the paper's machines analytics are bandwidth
// bound — kernels pay for every byte streamed from the slow tier — so a
// smaller adjacency representation trades cheap decode compute for scarce
// memory bandwidth. The backend is charge-only: kernels walk the raw rows
// every graph keeps host-side, and the engine charges memsim for the
// compressed bytes a traversal would stream plus an explicit decode cost
// (memsim.CostParams.DecodePerEdge/DecodePerVertex), which keeps that
// trade-off honest without decoding on the host.
//
// Block layout for vertex v (all varints are unsigned LEB128):
//
//	degree  uvarint
//	first   zigzag(neighbor[0] - v)
//	[weight uvarint]                    (weighted graphs interleave)
//	delta   zigzag(neighbor[i] - neighbor[i-1])   for i >= 1
//	[weight uvarint]
//
// Deltas are zigzag-signed so any neighbor order round-trips exactly;
// the sorted adjacency the generators produce compresses best. Weights
// are interleaved with the deltas (as in GBBS) so an early-exited scan
// consumes a contiguous prefix of the block (PrefixBytes).

// Adjacency is a read-only view over one direction of a graph's adjacency,
// implemented by the raw CSR slices (RawAdjacency), the compressed form
// (CompressedCSR, which walks the same raw rows and differs only in its
// backing extents) and the delta overlay (OverlayAdj). It answers degrees,
// edge-index bases and the block extents charging reads; its Cursor is the
// one way to walk a row. Kernels read rows through core.AdjView.ReadRow,
// which slices a raw row straight from the graph's storage and walks a
// Cursor only to merge an overlay-touched row.
type Adjacency interface {
	NumNodes() int
	NumEdges() int64
	Degree(v Node) int64
	// Base returns the global index of v's first edge, shared by both
	// forms so operator edge indices (ei) are backend-independent. It
	// accepts v == NumNodes() (the one-past-the-end base).
	Base(v Node) int64
	// Extent returns v's block range in backing elements — edge indices
	// for the raw form, byte offsets for the compressed form — for
	// charging streamed reads of the block.
	Extent(v Node) (lo, hi int64)
	// ExtentRange is Extent over the contiguous vertex range [lo, hi).
	ExtentRange(lo, hi Node) (int64, int64)
	// Cursor returns a zero-allocation iterator over v's neighbors, which
	// reports each neighbor's edge index and the entries it consumed. On
	// the raw and compressed forms, and for overlay vertices the delta
	// does not touch, the k-th neighbor has edge index Base(v)+k.
	Cursor(v Node) Cursor
}

// Cursor iterates one vertex's neighbors without allocating; it is
// returned by value and handles both row forms: a raw row (also what the
// compressed backend walks), and a delta overlay layered over one (the
// base row with deleted pairs filtered, merged against the sorted insert
// list, base copies first on destination ties).
type Cursor struct {
	// The base row and the number of its edges consumed so far.
	nbrs []Node
	i    int

	// Edge-index tracking: base is the vertex's first base edge index, ei
	// the index of the last neighbor returned (under the overlay ei
	// contract inserts get ovInsEI + their position instead).
	base, ei int64

	// Overlay form (ov true): sorted insert and deleted-pair lists for
	// the vertex, a one-slot base lookahead, and the insert ei base.
	ov         bool
	ovIns      []Node
	ovInsPos   int
	ovInsEI    int64
	ovDel      []Node
	ovDelPos   int
	ovPeek     Node
	ovPeekEI   int64
	ovHasPeek  bool
	ovBaseDone bool
}

// baseNext advances the base row, maintaining the base edge index.
func (c *Cursor) baseNext() (Node, bool) {
	if c.i >= len(c.nbrs) {
		return 0, false
	}
	d := c.nbrs[c.i]
	c.ei = c.base + int64(c.i)
	c.i++
	return d, true
}

// Next returns the next neighbor, or ok=false at the end of the block.
func (c *Cursor) Next() (Node, bool) {
	if !c.ov {
		// The raw step — what every kernel loop on the raw backend runs per
		// edge — is taken here, without the call into baseNext.
		if c.i < len(c.nbrs) {
			d := c.nbrs[c.i]
			c.ei = c.base + int64(c.i)
			c.i++
			return d, true
		}
		return 0, false
	}
	// Refill the base lookahead, skipping every copy of deleted pairs.
	for !c.ovHasPeek && !c.ovBaseDone {
		d, ok := c.baseNext()
		if !ok {
			c.ovBaseDone = true
			break
		}
		for c.ovDelPos < len(c.ovDel) && c.ovDel[c.ovDelPos] < d {
			c.ovDelPos++
		}
		if c.ovDelPos < len(c.ovDel) && c.ovDel[c.ovDelPos] == d {
			continue // deleted copy: skip, keep delPos (parallel copies follow)
		}
		c.ovPeek, c.ovPeekEI, c.ovHasPeek = d, c.ei, true
	}
	// Merge: surviving base edge first on ties with an insert.
	if c.ovHasPeek && (c.ovInsPos >= len(c.ovIns) || c.ovPeek <= c.ovIns[c.ovInsPos]) {
		c.ovHasPeek = false
		c.ei = c.ovPeekEI
		return c.ovPeek, true
	}
	if c.ovInsPos < len(c.ovIns) {
		d := c.ovIns[c.ovInsPos]
		c.ei = c.ovInsEI + int64(c.ovInsPos)
		c.ovInsPos++
		return d, true
	}
	return 0, false
}

// EI returns the edge index of the last neighbor Next returned: the
// direction's edge-array index for base edges, |E_base| + insert position
// for overlay inserts. Operators receive it instead of Base(v)+k, which
// keeps edge indices correct across all three adjacency forms.
func (c *Cursor) EI() int64 { return c.ei }

// Consumed returns the base edges consumed so far (under an overlay,
// deleted copies and the lookahead included), so early-exited scans can
// charge exactly the prefix they streamed: that many edge elements on the
// raw backend, CompressedCSR.PrefixBytes of them on the compressed one.
// Overlay delta entries consumed are reported separately by DeltaConsumed.
func (c *Cursor) Consumed() int64 { return int64(c.i) }

// DeltaConsumed returns the overlay delta entries (inserts yielded plus
// deleted pairs passed) consumed so far; zero for non-overlay cursors.
func (c *Cursor) DeltaConsumed() int64 {
	return int64(c.ovInsPos + c.ovDelPos)
}

// RawAdjacency adapts one direction's raw CSR slices to Adjacency.
type RawAdjacency struct {
	Offsets []int64
	Edges   []Node
}

// RawOut returns the out-direction raw adjacency view.
func (g *Graph) RawOut() RawAdjacency {
	return RawAdjacency{Offsets: g.OutOffsets, Edges: g.OutEdges}
}

// RawIn returns the in-direction raw adjacency view; BuildIn must have
// been called.
func (g *Graph) RawIn() RawAdjacency {
	return RawAdjacency{Offsets: g.InOffsets, Edges: g.InEdges}
}

func (a RawAdjacency) NumNodes() int       { return len(a.Offsets) - 1 }
func (a RawAdjacency) NumEdges() int64     { return int64(len(a.Edges)) }
func (a RawAdjacency) Degree(v Node) int64 { return a.Offsets[v+1] - a.Offsets[v] }
func (a RawAdjacency) Base(v Node) int64   { return a.Offsets[v] }
func (a RawAdjacency) Extent(v Node) (int64, int64) {
	return a.Offsets[v], a.Offsets[v+1]
}
func (a RawAdjacency) ExtentRange(lo, hi Node) (int64, int64) {
	return a.Offsets[lo], a.Offsets[hi]
}
func (a RawAdjacency) Cursor(v Node) Cursor {
	return Cursor{nbrs: a.Edges[a.Offsets[v]:a.Offsets[v+1]], base: a.Offsets[v]}
}

// CompressedCSR is one direction's adjacency in delta+varint block form.
// It keeps the raw rows it encodes (aliasing the graph's own slices), and
// every traversal method — Degree, Base, Cursor — is the raw
// one: the blocks are never decoded on the host. The simulated storage the
// backend models is ByteOffsets plus Data (see Bytes), so Extent and
// ExtentRange report byte ranges and PrefixBytes sizes early-exited scans.
type CompressedCSR struct {
	RawAdjacency
	weighted bool

	// ByteOffsets has length n+1; vertex v's block is
	// Data[ByteOffsets[v]:ByteOffsets[v+1]].
	ByteOffsets []int64
	Data        []byte
}

func (z *CompressedCSR) Weighted() bool { return z.weighted }
func (z *CompressedCSR) Extent(v Node) (int64, int64) {
	return z.ByteOffsets[v], z.ByteOffsets[v+1]
}
func (z *CompressedCSR) ExtentRange(lo, hi Node) (int64, int64) {
	return z.ByteOffsets[lo], z.ByteOffsets[hi]
}

// Bytes returns the simulated storage footprint of this direction: the
// byte-offset array plus the block data (degrees live in the blocks;
// weights, when present, are interleaved with the deltas).
func (z *CompressedCSR) Bytes() int64 {
	n := z.NumNodes()
	return int64(n+1)*8 + z.ByteOffsets[n]
}

// PrefixBytes returns the length of the prefix of v's block that holds its
// degree and first k edges: the degree varint plus k delta varints, and k
// weight varints on a weighted graph. It counts varint terminators (bytes
// below 0x80) instead of decoding; k == Degree(v) is the whole block.
func (z *CompressedCSR) PrefixBytes(v Node, k int64) int64 {
	lo, hi := z.ByteOffsets[v], z.ByteOffsets[v+1]
	if k >= z.Degree(v) {
		return hi - lo
	}
	left := 1 + k
	if z.weighted {
		left += k
	}
	for i, b := range z.Data[lo:hi] {
		if b < 0x80 {
			if left--; left == 0 {
				return int64(i) + 1
			}
		}
	}
	return hi - lo
}

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// compressAdjacency encodes one direction (weights may be nil) in two
// passes, each split across buildWorkers workers over row ranges of about
// equal edge count (splitRows). The first sizes every block by counting
// varint lengths; a prefix sum turns the sizes into ByteOffsets; the
// second encodes each block in place. Data is allocated at its exact size,
// and a block's bytes depend only on its row, so the split never shows in
// the output.
func compressAdjacency(n int, offsets []int64, edges []Node, weights []uint32) *CompressedCSR {
	workers := buildWorkers(n, int64(len(edges)))
	bounds := splitRows(offsets, workers)
	byteOffs := make([]int64, n+1)
	parallel(workers, func(w int) {
		for v := bounds[w]; v < bounds[w+1]; v++ {
			lo, hi := offsets[v], offsets[v+1]
			size := uvarintLen(uint64(hi - lo))
			prev := int64(v)
			for i := lo; i < hi; i++ {
				d := int64(edges[i])
				size += uvarintLen(zigzag(d - prev))
				prev = d
				if weights != nil {
					size += uvarintLen(uint64(weights[i]))
				}
			}
			byteOffs[v+1] = size
		}
	})
	for v := range n {
		byteOffs[v+1] += byteOffs[v]
	}
	data := make([]byte, byteOffs[n])
	parallel(workers, func(w int) {
		for v := bounds[w]; v < bounds[w+1]; v++ {
			lo, hi := offsets[v], offsets[v+1]
			buf := data[byteOffs[v]:byteOffs[v+1]]
			k := binary.PutUvarint(buf, uint64(hi-lo))
			prev := int64(v)
			for i := lo; i < hi; i++ {
				d := int64(edges[i])
				k += binary.PutUvarint(buf[k:], zigzag(d-prev))
				prev = d
				if weights != nil {
					k += binary.PutUvarint(buf[k:], uint64(weights[i]))
				}
			}
		}
	})
	return &CompressedCSR{
		RawAdjacency: RawAdjacency{Offsets: offsets, Edges: edges},
		weighted:     weights != nil,
		ByteOffsets:  byteOffs,
		Data:         data,
	}
}

// uvarintLen is the length of x's unsigned LEB128 encoding.
func uvarintLen(x uint64) int64 { return int64(bits.Len64(x|1)+6) / 7 }

// CompressOut returns the out-direction's compressed form, encoding it on
// first use and caching it on the graph (invalidated by AddRandomWeights).
// Safe for concurrent callers over a sealed graph.
func (g *Graph) CompressOut() *CompressedCSR {
	g.zmu.Lock()
	defer g.zmu.Unlock()
	if g.zOut == nil {
		g.zOut = compressAdjacency(g.NumNodes(), g.OutOffsets, g.OutEdges, g.OutWeights)
	}
	return g.zOut
}

// CompressIn is CompressOut for the transpose; BuildIn must have been
// called.
func (g *Graph) CompressIn() *CompressedCSR {
	if !g.HasIn() {
		panic("graph: CompressIn requires the transpose (call BuildIn first)")
	}
	g.zmu.Lock()
	defer g.zmu.Unlock()
	if g.zIn == nil {
		g.zIn = compressAdjacency(g.NumNodes(), g.InOffsets, g.InEdges, g.InWeights)
	}
	return g.zIn
}

// dropCompressed invalidates the cached compressed forms after a mutation
// of the arrays they encode.
func (g *Graph) dropCompressed(out, in bool) {
	g.zmu.Lock()
	if out {
		g.zOut = nil
	}
	if in {
		g.zIn = nil
	}
	g.zmu.Unlock()
}

// zcache is the lazily-encoded compressed-form cache embedded in Graph.
type zcache struct {
	zmu  sync.Mutex
	zOut *CompressedCSR
	zIn  *CompressedCSR
}

// decode materializes the raw graph z's blocks encode for n vertices and
// the advertised edge count, validating the stream as it goes: every block
// must decode exactly its byte extent, degrees must sum to edges, and
// decoded neighbors must be valid node IDs. The returned graph carries z
// as its cached out-direction compressed form, over the rows just decoded.
func (z *CompressedCSR) decode(n int, edges int64) (*Graph, error) {
	if len(z.ByteOffsets) != n+1 {
		return nil, fmt.Errorf("graph: csrz offsets length %d, want %d", len(z.ByteOffsets), n+1)
	}
	if z.ByteOffsets[0] != 0 {
		return nil, fmt.Errorf("graph: csrz ByteOffsets[0] = %d, want 0", z.ByteOffsets[0])
	}
	if z.ByteOffsets[n] != int64(len(z.Data)) {
		return nil, fmt.Errorf("graph: csrz ByteOffsets[n]=%d != data length %d", z.ByteOffsets[n], len(z.Data))
	}
	g := &Graph{
		OutOffsets: make([]int64, n+1),
		OutEdges:   make([]Node, 0, edges),
	}
	if z.weighted {
		g.OutWeights = make([]uint32, 0, edges)
	}
	edgeOffs := make([]int64, n+1)
	for v := 0; v < n; v++ {
		blo, bhi := z.ByteOffsets[v], z.ByteOffsets[v+1]
		if bhi < blo || bhi > int64(len(z.Data)) {
			return nil, fmt.Errorf("graph: csrz block %d has invalid extent [%d, %d)", v, blo, bhi)
		}
		block := z.Data[blo:bhi]
		deg, pos := binary.Uvarint(block)
		if pos <= 0 {
			return nil, fmt.Errorf("graph: csrz block %d: bad degree varint", v)
		}
		if int64(deg) > edges-int64(len(g.OutEdges)) {
			return nil, fmt.Errorf("graph: csrz block %d: degree %d exceeds remaining edges", v, deg)
		}
		prev := int64(v)
		for i := uint64(0); i < deg; i++ {
			u, k := binary.Uvarint(block[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("graph: csrz block %d: bad delta varint at edge %d", v, i)
			}
			pos += k
			prev += unzigzag(u)
			if prev < 0 || prev >= int64(n) {
				return nil, fmt.Errorf("graph: csrz block %d: neighbor %d out of range [0, %d)", v, prev, n)
			}
			g.OutEdges = append(g.OutEdges, Node(prev))
			if z.weighted {
				w, wk := binary.Uvarint(block[pos:])
				if wk <= 0 || w > uint64(^uint32(0)) {
					return nil, fmt.Errorf("graph: csrz block %d: bad weight varint at edge %d", v, i)
				}
				pos += wk
				g.OutWeights = append(g.OutWeights, uint32(w))
			}
		}
		if int64(pos) != bhi-blo {
			return nil, fmt.Errorf("graph: csrz block %d: decoded %d of %d bytes", v, pos, bhi-blo)
		}
		edgeOffs[v+1] = int64(len(g.OutEdges))
	}
	if int64(len(g.OutEdges)) != edges {
		return nil, fmt.Errorf("graph: csrz degrees sum to %d edges, header says %d", len(g.OutEdges), edges)
	}
	copy(g.OutOffsets, edgeOffs)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	z.RawAdjacency = g.RawOut()
	g.zOut = z
	return g, nil
}
