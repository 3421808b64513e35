package engine

import (
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// overlayEngine builds an engine with both directions over an overlay of g
// after ups, on the raw backend (so an edge element is 4 bytes).
func overlayEngine(t *testing.T, g *graph.Graph, ups []graph.EdgeUpdate, weighted bool) *Engine {
	t.Helper()
	ov, _, err := graph.ApplyOverlay(g, ups)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.GaloisDefaults(4)
	opts.BothDirections = true
	opts.Weighted = weighted
	r, err := core.NewOverlay(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), ov, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return New(r, Config{Rep: RepDense, Dir: DirPull})
}

// cursorPrefix walks v's row in av with a Cursor the way a per-edge pull
// did: it stops after the k-th edge when stop is set, and otherwise runs
// off the row's end, terminating step included. It returns what the
// Cursor had consumed then.
func cursorPrefix(av *core.AdjView, v graph.Node, k int, stop bool) (base, delta int64) {
	c := av.Adj.Cursor(v)
	for i := 0; !stop || i < k; i++ {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	return c.Consumed(), c.DeltaConsumed()
}

// TestMergedRowPrefixChargesCursorWalk pulls an overlay row whose trailing
// base edges are deleted, once to completion and once stopping after each
// edge in turn. The row is merged once; the prefix each pull charges must
// be what a Cursor walk consumed, including, for the complete scan, the
// terminating step that skips the deleted trailing base edges.
func TestMergedRowPrefixChargesCursorWalk(t *testing.T) {
	// Vertex 0's in-row is 1..6; the batch deletes 5->0 and 6->0 and
	// inserts 7->0, which sorts after them.
	var edges []graph.Edge
	for u := graph.Node(1); u <= 6; u++ {
		edges = append(edges, graph.Edge{Src: u, Dst: 0})
	}
	g := graph.MustFromEdges(8, edges, false, true)
	g.BuildIn()
	for _, ups := range map[string][]graph.EdgeUpdate{
		"deletes": {{Op: graph.OpDelete, Src: 5, Dst: 0}, {Op: graph.OpDelete, Src: 6, Dst: 0}},
		"deletes+insert": {{Op: graph.OpDelete, Src: 5, Dst: 0}, {Op: graph.OpDelete, Src: 6, Dst: 0},
			{Op: graph.OpInsert, Src: 7, Dst: 0}},
	} {
		e := overlayEngine(t, g, ups, false)
		if !e.in.Merged(0) {
			t.Fatal("vertex 0's in-row is not merged")
		}
		row, _ := e.in.ReadRow(new(core.RowBuf), 0, false)
		for k := 0; k <= len(row); k++ {
			stop := k < len(row)
			// One pull round in which only vertex 0 scans, stopping after
			// k edges or running off the end.
			edgesR0, _ := e.in.Edges.Traffic()
			deltaR0, _ := e.in.Delta.Traffic()
			e.EdgeMap(e.FullFrontier(), EdgeMapArgs{
				PullCond: func(v graph.Node) bool { return v == 0 },
				PullRow: func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
					if stop {
						return false, true, k
					}
					return false, false, len(row)
				},
			})
			edgesR, _ := e.in.Edges.Traffic()
			deltaR, _ := e.in.Delta.Traffic()
			base, delta := cursorPrefix(&e.in, 0, k, stop)
			if got, want := edgesR-edgesR0, uint64(4*base); got != want {
				t.Errorf("%v, %d edges, stop %v: charged %d edge bytes, Cursor consumed %d base edges (%d bytes)", ups, k, stop, got, base, want)
			}
			if got, want := deltaR-deltaR0, uint64(8*delta); got != want {
				t.Errorf("%v, %d edges, stop %v: charged %d delta bytes, Cursor consumed %d entries (%d bytes)", ups, k, stop, got, delta, want)
			}
		}
		// The complete scan takes the terminating step over the deleted
		// trailing base edges, so it consumed the whole base row.
		if base, _ := cursorPrefix(&e.in, 0, len(row), false); base != 6 {
			t.Fatalf("%v: a complete walk consumed %d base edges, want 6", ups, base)
		}
	}
}

// TestRowProgramsSeeEdgeWeights: on a weighted overlay, a push row
// program's wts[k] is the weight of the edge its per-edge form sees as ei
// at the same position (the overlay's Weight(ei)), merged rows included,
// and both forms walk the same rows.
func TestRowProgramsSeeEdgeWeights(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3, false)
	g.AddRandomWeights(100, 9)
	g.BuildIn()
	ups, err := gen.UpdateStream(g, 1, 64, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	e := overlayEngine(t, g, ups[0], true)
	e.cfg = Config{Rep: RepDense, Dir: DirPush, DenseFrac: 20, PullFrac: 20}
	n := e.R.NumNodes()
	type edge struct {
		d graph.Node
		w uint32
	}
	rowForm, edgeForm := make([][]edge, n), make([][]edge, n)
	e.EdgeMap(e.FullFrontier(), EdgeMapArgs{
		Weighted: true,
		PushRow: func(u graph.Node, row []graph.Node, wts []uint32, claims []graph.Node) []graph.Node {
			for k, d := range row {
				rowForm[u] = append(rowForm[u], edge{d, wts[k]})
			}
			return claims
		},
	})
	e.EdgeMap(e.FullFrontier(), EdgeMapArgs{
		Weighted: true,
		Push: func(u, d graph.Node, ei int64) bool {
			edgeForm[u] = append(edgeForm[u], edge{d, e.out.Ov.Weight(ei)})
			return false
		},
	})
	merged := 0
	for u := range n {
		if e.out.Merged(graph.Node(u)) {
			merged++
		}
		if len(rowForm[u]) != len(edgeForm[u]) {
			t.Fatalf("vertex %d: row program saw %d edges, per-edge push %d", u, len(rowForm[u]), len(edgeForm[u]))
		}
		for k := range rowForm[u] {
			if rowForm[u][k] != edgeForm[u][k] {
				t.Fatalf("vertex %d edge %d: row program saw %v, per-edge push %v", u, k, rowForm[u][k], edgeForm[u][k])
			}
		}
	}
	if merged == 0 {
		t.Fatal("the batch touched no out-row")
	}
}
