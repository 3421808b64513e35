package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// appendRowInputs returns every adjacency form AppendRow has, in both
// directions, over a base with parallel copies and multi-byte varints:
// raw, compressed (weighted and unweighted), and an overlay over each with
// inserts, deletes and inserted parallel copies.
func appendRowInputs(t *testing.T) map[string]Adjacency {
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
// prove AppendRow's result does not alias them.
func storage(a Adjacency) (edges []Node, data []byte) {
	if ov, ok := a.(*OverlayAdj); ok {
		a = ov.base
	}
	switch x := a.(type) {
	case RawAdjacency:
		return slices.Clone(x.Edges), nil
	case *CompressedCSR:
		return slices.Clone(x.Edges), slices.Clone(x.Data)
	}
	return nil, nil
}

// TestAppendRowMatchesCursor: for every vertex of every form, AppendRow
// onto a prefix yields the prefix followed by the Cursor sequence, leaves
// the prefix untouched, and returns memory the caller may overwrite
// without changing the graph.
func TestAppendRowMatchesCursor(t *testing.T) {
	for name, adj := range appendRowInputs(t) {
		t.Run(name, func(t *testing.T) {
			edges, data := storage(adj)
			prefix := make([]Node, 3, 64)
			copy(prefix, []Node{11, 12, 13})
			var scratch []Node
			for v := Node(0); int(v) < adj.NumNodes(); v++ {
				var want []Node
				c := adj.Cursor(v)
				for {
					d, ok := c.Next()
					if !ok {
						break
					}
					want = append(want, d)
				}
				if int64(len(want)) != adj.Degree(v) {
					t.Fatalf("v=%d: cursor yields %d neighbors, Degree says %d", v, len(want), adj.Degree(v))
				}
				got := adj.AppendRow(prefix, v)
				if !slices.Equal(got[:3], []Node{11, 12, 13}) || !slices.Equal(prefix, []Node{11, 12, 13}) {
					t.Fatalf("v=%d: prefix disturbed: %v", v, got[:3])
				}
				if !slices.Equal(got[3:], want) {
					t.Fatalf("v=%d: AppendRow = %v, cursor = %v", v, got[3:], want)
				}
				scratch = adj.AppendRow(scratch[:0], v)
				if !slices.Equal(scratch, want) {
					t.Fatalf("v=%d: AppendRow on reused scratch = %v, cursor = %v", v, scratch, want)
				}
				// Overwrite both rows: the graph must not see it.
				for i := range got[3:] {
					got[3+i] = ^Node(0)
				}
				row := adj.AppendRow(nil, v)
				for i := range row {
					row[i] = ^Node(0)
				}
			}
			gotEdges, gotData := storage(adj)
			if !slices.Equal(gotEdges, edges) || !slices.Equal(gotData, data) {
				t.Fatal("writing into AppendRow's result changed the graph's storage")
			}
		})
	}
}
