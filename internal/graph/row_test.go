package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// rowInputs returns every adjacency form Row has, in both
// directions, over a base with parallel copies and multi-byte varints:
// raw, compressed (weighted and unweighted), and an overlay over each with
// inserts, deletes and inserted parallel copies.
func rowInputs(t *testing.T) map[string]Adjacency {
	t.Helper()
	const n = 300
	rng := rand.New(rand.NewSource(5))
	var edges []Edge
	for range 4000 {
		s, d := Node(rng.Intn(n)), Node(rng.Intn(n))
		edges = append(edges, Edge{Src: s, Dst: d})
		if rng.Intn(10) == 0 {
			edges = append(edges, Edge{Src: s, Dst: d}) // parallel copy
		}
	}
	for d := Node(0); d < n; d++ {
		edges = append(edges, Edge{Src: 7, Dst: d}) // a hub row
	}
	out := make(map[string]Adjacency)
	for _, weighted := range []bool{false, true} {
		g := MustFromEdges(n, edges, false, false)
		name := "unweighted"
		if weighted {
			g.AddRandomWeights(5000, 9)
			name = "weighted"
		}
		g.BuildIn()
		ups := randomBatch(rng, g, 200, weighted)
		dup := EdgeUpdate{Op: OpInsert, Src: 7, Dst: 3}
		if weighted {
			dup.Weight = 2
		}
		ups = append(ups, dup, dup)
		ov, _, err := ApplyOverlay(g, ups)
		if err != nil {
			t.Fatal(err)
		}
		if err := ov.Validate(); err != nil {
			t.Fatal(err)
		}
		if !weighted {
			out["raw/out"], out["raw/in"] = g.RawOut(), g.RawIn()
			out["overlay-raw/out"], out["overlay-raw/in"] = ov.OutAdj(false), ov.InAdj(false)
		}
		out["compressed-"+name+"/out"], out["compressed-"+name+"/in"] = g.CompressOut(), g.CompressIn()
		out["overlay-compressed-"+name+"/out"], out["overlay-compressed-"+name+"/in"] = ov.OutAdj(true), ov.InAdj(true)
	}
	return out
}

// storage snapshots the backing arrays an adjacency reads, so a test can
// prove writing into a merged row leaves them alone, and returns the edge
// array raw rows must alias.
func storage(a Adjacency) (edges []Node, snapEdges []Node, snapData []byte) {
	if ov, ok := a.(*OverlayAdj); ok {
		a = ov.base
	}
	switch x := a.(type) {
	case RawAdjacency:
		return x.Edges, slices.Clone(x.Edges), nil
	case *CompressedCSR:
		return x.Edges, slices.Clone(x.Edges), slices.Clone(x.Data)
	}
	return nil, nil, nil
}

// TestRowMatchesCursor: for every vertex of every form, Row yields exactly
// the Cursor's sequence; a raw row is the graph's own storage at Base(v),
// capped at the row's end, with Cursor.EI() == Base(v)+k at every k; a
// merged row is exactly an overlay-touched vertex's, and lives in the
// caller's scratch, where the caller may overwrite it without changing the
// graph.
func TestRowMatchesCursor(t *testing.T) {
	for name, adj := range rowInputs(t) {
		t.Run(name, func(t *testing.T) {
			edges, snapEdges, snapData := storage(adj)
			ov, _ := adj.(*OverlayAdj)
			scratch := make([]Node, 3, 2*adj.NumNodes())
			copy(scratch, []Node{11, 12, 13})
			var raws, merged int
			for v := Node(0); int(v) < adj.NumNodes(); v++ {
				var want []Node
				contiguous := true
				c := adj.Cursor(v)
				for k := int64(0); ; k++ {
					d, ok := c.Next()
					if !ok {
						break
					}
					want = append(want, d)
					contiguous = contiguous && c.EI() == adj.Base(v)+k
				}
				if int64(len(want)) != adj.Degree(v) {
					t.Fatalf("v=%d: cursor yields %d neighbors, Degree says %d", v, len(want), adj.Degree(v))
				}
				row, raw := adj.Row(scratch, v)
				if !slices.Equal(row, want) {
					t.Fatalf("v=%d: Row = %v, cursor = %v", v, row, want)
				}
				touched := false
				if ov != nil {
					lo, hi := ov.DeltaExtent(v)
					touched = hi > lo
					if ov.Touched(v) != touched {
						t.Fatalf("v=%d: Touched %v, delta extent [%d, %d)", v, ov.Touched(v), lo, hi)
					}
				}
				if raw == touched {
					t.Fatalf("v=%d: raw %v for a vertex the delta touches: %v", v, raw, touched)
				}
				if raw {
					raws++
					if !contiguous {
						t.Fatalf("v=%d: raw row, but cursor edge indices are not Base(v)+k", v)
					}
					if len(row) > 0 && &row[0] != &edges[adj.Base(v)] {
						t.Fatalf("v=%d: raw row does not alias Edges[Base(v)]", v)
					}
					if cap(row) != len(row) {
						t.Fatalf("v=%d: raw row has cap %d past its %d neighbors", v, cap(row), len(row))
					}
					continue
				}
				merged++
				if len(row) > 0 && &row[0] != &scratch[0] {
					t.Fatalf("v=%d: merged row is not in the caller's scratch", v)
				}
				for i := range row {
					row[i] = ^Node(0)
				}
				if row, _ := adj.Row(nil, v); !slices.Equal(row, want) {
					t.Fatalf("v=%d: Row on nil scratch = %v, cursor = %v", v, row, want)
				}
			}
			if ov != nil && (raws == 0 || merged == 0) {
				t.Fatalf("overlay form walked %d raw and %d merged rows; want both", raws, merged)
			}
			_, gotEdges, gotData := storage(adj)
			if !slices.Equal(gotEdges, snapEdges) || !slices.Equal(gotData, snapData) {
				t.Fatal("writing into a merged row changed the graph's storage")
			}
		})
	}
}
