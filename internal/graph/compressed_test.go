package graph

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
)

// csrzHeader serializes a compressed-CSR header with arbitrary fields.
func csrzHeader(magic, flags, nodes, edges, dataBytes uint64) []byte {
	var buf bytes.Buffer
	for _, v := range []uint64{magic, flags, nodes, edges, dataBytes} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

func testGraphs(t *testing.T) map[string]*Graph {
	t.Helper()
	hub := []Edge{}
	for d := Node(1); d < 40; d++ {
		hub = append(hub, Edge{Src: 0, Dst: d}, Edge{Src: d, Dst: (d + 1) % 40})
	}
	weighted := MustFromEdges(6, []Edge{
		{Src: 0, Dst: 3}, {Src: 3, Dst: 5}, {Src: 5, Dst: 0}, {Src: 2, Dst: 2},
	}, false, false)
	weighted.AddRandomWeights(1000, 3)
	return map[string]*Graph{
		"small":     smallGraph(),
		"hub":       MustFromEdges(40, hub, false, true),
		"weighted":  weighted,
		"empty":     MustFromEdges(5, nil, false, false),
		"singleton": MustFromEdges(1, []Edge{{Src: 0, Dst: 0}}, false, false),
	}
}

// TestCompressRoundTrip: encoding a graph and decoding the blocks must
// reproduce the adjacency (order included) and weights exactly.
func TestCompressRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			z := g.CompressOut()
			if z.NumNodes() != g.NumNodes() || z.NumEdges() != g.NumEdges() {
				t.Fatalf("shape: %d/%d, want %d/%d", z.NumNodes(), z.NumEdges(), g.NumNodes(), g.NumEdges())
			}
			got, err := z.decode(z.NumNodes(), z.NumEdges())
			if err != nil {
				t.Fatalf("decoding freshly-encoded graph: %v", err)
			}
			if !bytes.Equal(nodeBytes(got.OutEdges), nodeBytes(g.OutEdges)) {
				t.Fatal("edge order not preserved through compression")
			}
			for v := 0; v < g.NumNodes(); v++ {
				if got.OutOffsets[v+1] != g.OutOffsets[v+1] {
					t.Fatalf("offsets diverge at %d", v)
				}
			}
			if g.HasWeights() {
				for i := range g.OutWeights {
					if g.OutWeights[i] != got.OutWeights[i] {
						t.Fatalf("weight %d = %d, want %d", i, got.OutWeights[i], g.OutWeights[i])
					}
				}
			}
			if z.Bytes() <= 0 {
				t.Fatal("non-positive compressed footprint")
			}
		})
	}
}

func nodeBytes(ns []Node) []byte {
	out := make([]byte, 4*len(ns))
	for i, n := range ns {
		binary.LittleEndian.PutUint32(out[4*i:], n)
	}
	return out
}

// TestCompressedCursorMatchesRaw walks every vertex through both
// adjacency forms and checks that a full scan's Consumed edges size the
// whole block.
func TestCompressedCursorMatchesRaw(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			z := g.CompressOut()
			raw := g.RawOut()
			for v := Node(0); int(v) < g.NumNodes(); v++ {
				if z.Degree(v) != raw.Degree(v) || z.Base(v) != raw.Base(v) {
					t.Fatalf("vertex %d: degree/base mismatch", v)
				}
				rc, zc := raw.Cursor(v), z.Cursor(v)
				for {
					rd, rok := rc.Next()
					zd, zok := zc.Next()
					if rok != zok {
						t.Fatalf("vertex %d: cursor lengths diverge", v)
					}
					if !rok {
						break
					}
					if rd != zd {
						t.Fatalf("vertex %d: neighbor %d != %d", v, zd, rd)
					}
				}
				blo, bhi := z.Extent(v)
				if got := z.PrefixBytes(v, zc.Consumed()); got != bhi-blo {
					t.Fatalf("vertex %d: full scan consumed %d of %d block bytes", v, got, bhi-blo)
				}
			}
		})
	}
}

func TestWriteReadCSRZRoundTrip(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteCSRZ(&buf, g); err != nil {
				t.Fatal(err)
			}
			h, err := ReadCSRZ(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
				t.Fatalf("shape changed: %d/%d -> %d/%d", g.NumNodes(), g.NumEdges(), h.NumNodes(), h.NumEdges())
			}
			if !bytes.Equal(nodeBytes(h.OutEdges), nodeBytes(g.OutEdges)) {
				t.Fatal("edges changed in round trip")
			}
			if g.HasWeights() != h.HasWeights() {
				t.Fatal("weight presence changed in round trip")
			}
			if h.CompressOut() == nil || h.CompressOut().NumEdges() != g.NumEdges() {
				t.Fatal("round-tripped graph lost its cached compressed form")
			}
		})
	}
}

func TestReadCSRZRejectsAbsurdHeaders(t *testing.T) {
	cases := map[string][]byte{
		"wrong-magic":   csrzHeader(csrMagic, 0, 4, 4, 64),
		"unknown-flags": csrzHeader(csrzMagic, 0xF0, 4, 4, 64),
		"huge-nodes":    csrzHeader(csrzMagic, 0, 1<<60, 4, 64),
		"wide-nodes":    csrzHeader(csrzMagic, 0, 1<<33, 4, 64),
		"huge-edges":    csrzHeader(csrzMagic, 0, 4, 1<<61, 64),
		"huge-data":     csrzHeader(csrzMagic, 0, 4, 4, 1<<61),
		"overflow":      csrzHeader(csrzMagic, flagWeighted, ^uint64(0), ^uint64(0), ^uint64(0)),
		// Data shorter than its minimal encoding (4 degree bytes + 8
		// edge bytes > 5).
		"short-data":      csrzHeader(csrzMagic, 0, 4, 8, 5),
		"truncated-magic": {0x50, 0x4d, 0x47},
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadCSRZ(bytes.NewReader(raw)); err == nil {
				t.Error("hostile csrz header accepted")
			}
		})
	}
}

func TestReadCSRZTruncatedAndCorruptBodies(t *testing.T) {
	g := smallGraph()
	var buf bytes.Buffer
	if err := WriteCSRZ(&buf, g); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	t.Run("truncated-offsets", func(t *testing.T) {
		if _, err := ReadCSRZ(bytes.NewReader(whole[:44])); err == nil {
			t.Error("truncated offsets accepted")
		}
	})
	t.Run("truncated-data", func(t *testing.T) {
		if _, err := ReadCSRZ(bytes.NewReader(whole[:len(whole)-1])); err == nil {
			t.Error("truncated data accepted")
		}
	})
	t.Run("huge-claim-empty-body", func(t *testing.T) {
		// A header claiming a billion edges over no body must fail at
		// EOF without committing the claimed allocation.
		raw := csrzHeader(csrzMagic, 0, 10, 1<<30, 1<<30+10)
		if _, err := ReadCSRZ(bytes.NewReader(raw)); err == nil {
			t.Fatal("truncated body accepted")
		} else if !strings.Contains(err.Error(), "offsets") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
	t.Run("non-monotone-offsets", func(t *testing.T) {
		raw := append([]byte(nil), whole...)
		// ByteOffsets start at byte 40; make offset[1] enormous.
		binary.LittleEndian.PutUint64(raw[40+8:], 1<<40)
		if _, err := ReadCSRZ(bytes.NewReader(raw)); err == nil {
			t.Error("non-monotone byte offsets accepted")
		}
	})
	t.Run("corrupt-varint-stream", func(t *testing.T) {
		// Flipping high bits in the block data yields blocks that do
		// not decode to their advertised extent or point out of range;
		// every such corruption must be rejected, never panic.
		dataStart := 40 + (g.NumNodes()+1)*8
		for i := dataStart; i < len(whole); i++ {
			raw := append([]byte(nil), whole...)
			raw[i] ^= 0x80
			if got, err := ReadCSRZ(bytes.NewReader(raw)); err == nil {
				// A flip may still decode to a *valid* graph (e.g. a
				// different small delta); it must then re-encode
				// consistently.
				if err := got.Validate(); err != nil {
					t.Fatalf("byte %d: accepted invalid graph: %v", i, err)
				}
			}
		}
	})
}

func TestFromEdgesRejectsOutOfRangeEndpoints(t *testing.T) {
	cases := map[string][]Edge{
		"src-eq-n":  {{Src: 4, Dst: 0}},
		"dst-eq-n":  {{Src: 0, Dst: 4}},
		"src-big":   {{Src: ^Node(0), Dst: 1}},
		"dst-big":   {{Src: 1, Dst: 1 << 30}},
		"mixed-bad": {{Src: 0, Dst: 1}, {Src: 9, Dst: 9}},
	}
	for name, edges := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := FromEdges(4, edges, false, false); err == nil {
				t.Error("out-of-range endpoint accepted")
			}
		})
	}
	t.Run("zero-nodes", func(t *testing.T) {
		if _, err := FromEdges(0, []Edge{{Src: 0, Dst: 0}}, false, false); err == nil {
			t.Error("edge into an empty graph accepted")
		}
		if g, err := FromEdges(0, nil, false, false); err != nil || g.NumNodes() != 0 {
			t.Errorf("empty graph rejected: %v", err)
		}
	})
	t.Run("negative-n", func(t *testing.T) {
		if _, err := FromEdges(-1, nil, false, false); err == nil {
			t.Error("negative node count accepted")
		}
	})
}

// TestCompressCacheInvalidation: mutations that change the encoded arrays
// must drop the cached compressed forms.
func TestCompressCacheInvalidation(t *testing.T) {
	g := smallGraph()
	z1 := g.CompressOut()
	if z1.Weighted() {
		t.Fatal("unweighted graph encoded as weighted")
	}
	g.AddRandomWeights(16, 1)
	z2 := g.CompressOut()
	if z2 == z1 || !z2.Weighted() {
		t.Fatal("AddRandomWeights did not invalidate the compressed cache")
	}
	g.BuildIn()
	zin := g.CompressIn()
	if zin.NumEdges() != g.NumEdges() || !zin.Weighted() {
		t.Fatal("CompressIn mismatched transpose")
	}
	g.DropIn()
	g.BuildIn()
	if g.CompressIn() == zin {
		t.Fatal("DropIn did not invalidate the in-direction cache")
	}
}

// refPrefix is an independent reference decoder for v's block: it returns
// the byte position reached after the degree varint and the first k edge
// groups (delta, plus weight when weighted), and the neighbors decoded on
// the way.
func refPrefix(t *testing.T, z *CompressedCSR, v Node, k int64) (int64, []Node) {
	t.Helper()
	block := z.Data[z.ByteOffsets[v]:z.ByteOffsets[v+1]]
	deg, pos := binary.Uvarint(block)
	if pos <= 0 || int64(deg) < k {
		t.Fatalf("vertex %d: bad degree varint or k=%d past degree %d", v, k, deg)
	}
	prev := int64(v)
	var nbrs []Node
	for range k {
		u, n := binary.Uvarint(block[pos:])
		pos += n
		prev += int64(u>>1) ^ -int64(u&1)
		nbrs = append(nbrs, Node(prev))
		if z.weighted {
			_, n = binary.Uvarint(block[pos:])
			pos += n
		}
	}
	return int64(pos), nbrs
}

// TestPrefixBytesMatchDecoder: the bytes an early-exited scan is charged
// for — PrefixBytes of its Cursor's Consumed base edges — must be exactly
// where a varint decoder stands after the degree and that many edge
// groups, for every vertex and every prefix, on compressed bases weighted
// and unweighted and on the overlay over each; the whole degree is the
// whole block. The reference decoder also proves the blocks encode the raw
// rows the compressed form walks.
func TestPrefixBytesMatchDecoder(t *testing.T) {
	for name, adj := range rowInputs(t) {
		z, ok := adj.(*CompressedCSR)
		if ov, isOv := adj.(*OverlayAdj); isOv {
			z, ok = ov.base.(*CompressedCSR)
		}
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for v := Node(0); int(v) < z.NumNodes(); v++ {
				deg := z.Degree(v)
				row := z.Edges[z.Offsets[v]:z.Offsets[v+1]]
				for k := int64(0); k <= deg; k++ {
					want, nbrs := refPrefix(t, z, v, k)
					if got := z.PrefixBytes(v, k); got != want {
						t.Fatalf("vertex %d: PrefixBytes(%d) = %d, decoder at %d", v, k, got, want)
					}
					if !slices.Equal(nbrs, row[:k]) {
						t.Fatalf("vertex %d: block decodes %v, raw row %v", v, nbrs, row[:k])
					}
				}
				if lo, hi := z.Extent(v); z.PrefixBytes(v, deg) != hi-lo {
					t.Fatalf("vertex %d: whole-degree prefix %d, block %d bytes", v, z.PrefixBytes(v, deg), hi-lo)
				}
				// Every stopping point of the form's own cursor.
				c := adj.Cursor(v)
				for {
					consumed := c.Consumed()
					want, _ := refPrefix(t, z, v, consumed)
					if got := z.PrefixBytes(v, consumed); got != want {
						t.Fatalf("vertex %d: cursor consumed %d edges: %d bytes, decoder at %d", v, consumed, got, want)
					}
					if _, ok := c.Next(); !ok {
						break
					}
				}
				if c.Consumed() != deg {
					t.Fatalf("vertex %d: full scan consumed %d of %d base edges", v, c.Consumed(), deg)
				}
			}
		})
	}
}
