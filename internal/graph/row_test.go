package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// rowInputs returns every adjacency form, in both
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

// storageRow returns the row of edge storage an adjacency's Cursor walks
// for v: its own for the raw and compressed forms, the base's under an
// overlay.
func storageRow(a Adjacency, v Node) []Node {
	if ov, ok := a.(*OverlayAdj); ok {
		a = ov.base
	}
	switch x := a.(type) {
	case RawAdjacency:
		return x.Edges[x.Offsets[v]:x.Offsets[v+1]]
	case *CompressedCSR:
		return x.Edges[x.Offsets[v]:x.Offsets[v+1]]
	}
	return nil
}

// TestRowMatchesCursor: for every vertex of every form, the Cursor yields
// Degree(v) neighbors; a vertex the delta does not touch (every vertex of
// the raw and compressed forms) yields exactly its row of edge storage,
// with Cursor.EI() == Base(v)+k at every k; Touched agrees with the delta
// extent, and an overlay form has both kinds of vertex. The row a kernel
// reads is checked against the same Cursor walk in internal/core.
func TestRowMatchesCursor(t *testing.T) {
	for name, adj := range rowInputs(t) {
		t.Run(name, func(t *testing.T) {
			ov, _ := adj.(*OverlayAdj)
			var raws, merged int
			for v := Node(0); int(v) < adj.NumNodes(); v++ {
				var got []Node
				contiguous := true
				c := adj.Cursor(v)
				for k := int64(0); ; k++ {
					d, ok := c.Next()
					if !ok {
						break
					}
					got = append(got, d)
					contiguous = contiguous && c.EI() == adj.Base(v)+k
				}
				if int64(len(got)) != adj.Degree(v) {
					t.Fatalf("v=%d: cursor yields %d neighbors, Degree says %d", v, len(got), adj.Degree(v))
				}
				touched := false
				if ov != nil {
					lo, hi := ov.DeltaExtent(v)
					touched = hi > lo
					if ov.Touched(v) != touched {
						t.Fatalf("v=%d: Touched %v, delta extent [%d, %d)", v, ov.Touched(v), lo, hi)
					}
				}
				if touched {
					merged++
					continue
				}
				raws++
				if !contiguous {
					t.Fatalf("v=%d: untouched row, but cursor edge indices are not Base(v)+k", v)
				}
				if want := storageRow(adj, v); !slices.Equal(got, want) {
					t.Fatalf("v=%d: cursor = %v, storage row %v", v, got, want)
				}
			}
			if ov != nil && (raws == 0 || merged == 0) {
				t.Fatalf("overlay form walked %d raw and %d merged rows; want both", raws, merged)
			}
		})
	}
}
