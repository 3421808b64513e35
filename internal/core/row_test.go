package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// rowGraph returns a graph with parallel copies and a hub row, weighted
// with multi-byte weights when asked, with its transpose, and an update
// batch for it that inserts and deletes (parallel copies of a hub edge
// among the inserts).
func rowGraph(t testing.TB, weighted bool) (*graph.Graph, []graph.EdgeUpdate) {
	t.Helper()
	const n = 300
	rng := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for range 4000 {
		s, d := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		edges = append(edges, graph.Edge{Src: s, Dst: d})
		if rng.Intn(10) == 0 {
			edges = append(edges, graph.Edge{Src: s, Dst: d}) // parallel copy
		}
	}
	for d := graph.Node(0); d < n; d++ {
		edges = append(edges, graph.Edge{Src: 7, Dst: d}) // a hub row
	}
	g := graph.MustFromEdges(n, edges, false, false)
	if weighted {
		g.AddRandomWeights(5000, 9)
	}
	g.BuildIn()
	ups, err := gen.UpdateStream(g, 1, 200, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	dup := graph.EdgeUpdate{Op: graph.OpInsert, Src: 7, Dst: 3}
	if weighted {
		dup.Weight = 2
	}
	return g, append(ups[0], dup, dup)
}

// rowForm is one adjacency form a row reader serves.
type rowForm struct {
	name string
	r    *Runtime
}

// rowForms returns a runtime with both directions for every form: raw and
// compressed, each plain and under an overlay, over g.
func rowForms(t testing.TB, g *graph.Graph, ups []graph.EdgeUpdate) []rowForm {
	t.Helper()
	ov, _, err := graph.ApplyOverlay(g, ups)
	if err != nil {
		t.Fatal(err)
	}
	var forms []rowForm
	for _, backend := range []Backend{BackendRaw, BackendCompressed} {
		opts := GaloisDefaults(2)
		opts.BothDirections = true
		opts.Weighted = g.HasWeights()
		opts.Backend = backend
		m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
		plain, err := New(m, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		over, err := NewOverlay(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), ov, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(plain.Close)
		t.Cleanup(over.Close)
		forms = append(forms, rowForm{backend.String(), plain}, rowForm{"overlay-" + backend.String(), over})
	}
	return forms
}

// cursorStep is one step of a Cursor walk: the neighbor it yielded, its
// edge index, and what the Cursor had consumed after it.
type cursorStep struct {
	d           graph.Node
	ei          int64
	base, delta int64
}

// walkRow walks v's row in av with a Cursor to its end and returns every
// step, then the consumption after the terminating step.
func walkRow(av *AdjView, v graph.Node) (steps []cursorStep, base, delta int64) {
	c := av.Adj.Cursor(v)
	for d, ok := c.Next(); ok; d, ok = c.Next() {
		steps = append(steps, cursorStep{d, c.EI(), c.Consumed(), c.DeltaConsumed()})
	}
	return steps, c.Consumed(), c.DeltaConsumed()
}

// weightAt is the weight of the edge a Cursor reports as ei in av.
func weightAt(av *AdjView, ei int64) uint32 {
	if av.Ov != nil {
		return av.Ov.Weight(ei)
	}
	return av.RowWeights[ei]
}

// TestReadRowMatchesCursor checks the one row reader against a Cursor walk
// on every vertex of every form (raw, compressed, each plain and under an
// overlay), both directions, weighted and unweighted graphs, with and
// without weights asked for: the row is the Cursor's neighbors; wts[k] is
// the weight at the Cursor's EI() at row[k]; a row the delta does not
// touch is the graph's own storage, capped at its end, and its walk
// consumes one base edge per step; a merged row lives in the RowBuf, and
// Prefix reports what the walk had consumed at every stopping point an
// early-exited pull charges.
func TestReadRowMatchesCursor(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g, ups := rowGraph(t, weighted)
		asks := []bool{false}
		if weighted {
			asks = append(asks, true)
		}
		for _, form := range rowForms(t, g, ups) {
			for dir, av := range map[string]AdjView{"out": form.r.OutView(), "in": form.r.InView()} {
				for _, askW := range asks {
					name := fmt.Sprintf("weighted=%v/%s/%s/wts=%v", weighted, form.name, dir, askW)
					t.Run(name, func(t *testing.T) {
						checkReadRow(t, &av, askW)
					})
				}
			}
		}
	}
}

func checkReadRow(t *testing.T, av *AdjView, askW bool) {
	var b RowBuf
	var raws, merged int
	for v := graph.Node(0); int(v) < av.Adj.NumNodes(); v++ {
		row, wts := av.ReadRow(&b, v, askW)
		steps, endBase, endDelta := walkRow(av, v)
		if len(row) != len(steps) {
			t.Fatalf("v=%d: row has %d neighbors, cursor %d", v, len(row), len(steps))
		}
		if !askW && wts != nil {
			t.Fatalf("v=%d: weights returned unasked", v)
		}
		if askW && len(wts) != len(row) {
			t.Fatalf("v=%d: %d weights for %d neighbors", v, len(wts), len(row))
		}
		for k, s := range steps {
			if row[k] != s.d {
				t.Fatalf("v=%d: row[%d] = %d, cursor %d", v, k, row[k], s.d)
			}
			if askW && wts[k] != weightAt(av, s.ei) {
				t.Fatalf("v=%d: wts[%d] = %d, weight at cursor ei %d is %d", v, k, wts[k], s.ei, weightAt(av, s.ei))
			}
		}
		if !av.Merged(v) {
			raws++
			base := av.Rows.Offsets[v]
			if len(row) > 0 && (&row[0] != &av.Rows.Edges[base] || cap(row) != len(row)) {
				t.Fatalf("v=%d: an untouched row is not Rows.Edges[%d:] capped at its end", v, base)
			}
			if askW && len(wts) > 0 && (&wts[0] != &av.RowWeights[base] || cap(wts) != len(wts)) {
				t.Fatalf("v=%d: an untouched row's weights are not RowWeights[%d:] capped at its end", v, base)
			}
			for k, s := range steps {
				if s.base != int64(k+1) || s.delta != 0 {
					t.Fatalf("v=%d: after %d steps the cursor consumed %d base, %d delta", v, k+1, s.base, s.delta)
				}
			}
			continue
		}
		merged++
		if len(row) > 0 && &row[0] != &b.row[0] {
			t.Fatalf("v=%d: a merged row is not in the RowBuf", v)
		}
		if base, delta := b.Prefix(0, true); base != 0 || delta != 0 {
			t.Fatalf("v=%d: a scan stopped before its first edge consumed %d base, %d delta", v, base, delta)
		}
		for k, s := range steps {
			if base, delta := b.Prefix(k+1, true); base != s.base || delta != s.delta {
				t.Fatalf("v=%d: stopped after %d edges: Prefix %d base, %d delta; cursor %d, %d", v, k+1, base, delta, s.base, s.delta)
			}
		}
		if base, delta := b.Prefix(len(row), false); base != endBase || delta != endDelta {
			t.Fatalf("v=%d: a whole scan: Prefix %d base, %d delta; cursor %d, %d", v, base, delta, endBase, endDelta)
		}
	}
	if merged == 0 && av.Ov != nil || raws == 0 {
		t.Fatalf("walked %d untouched and %d merged rows", raws, merged)
	}
}

// BenchmarkRow reads every in-row of an RMAT16 graph through ReadRow and
// ranges over it, per form: the row walk a Gather round (pagerank's pull)
// does per vertex. Untouched rows are the graph's own storage; merged
// overlay rows reuse one RowBuf.
func BenchmarkRow(b *testing.B) {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.BuildIn()
	ups, err := gen.UpdateStream(g, 1, 4096, 7, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range rowForms(b, g, ups[0]) {
		if f.name == "overlay-raw" {
			continue // the same host rows as the compressed base's
		}
		b.Run(f.name, func(b *testing.B) {
			in := f.r.InView()
			var buf RowBuf
			var edges int64
			var sink graph.Node
			b.ReportAllocs()
			for b.Loop() {
				for v := range in.Adj.NumNodes() {
					row, _ := in.ReadRow(&buf, graph.Node(v), false)
					for _, u := range row {
						sink ^= u
					}
					edges += int64(len(row))
				}
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds()/1e6, "Medges/s")
			rowSink = sink
		})
	}
}

// rowSink keeps BenchmarkRow's range from being optimized away.
var rowSink graph.Node
