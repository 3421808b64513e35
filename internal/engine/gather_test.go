package engine

import (
	"slices"
	"strings"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// gatherEngines returns a dense-pull engine with in-edges over each
// adjacency form a Gather round decodes: raw, compressed, and an overlay
// (inserts and deletes) over a compressed base.
func gatherEngines(t *testing.T) map[string]*Engine {
	t.Helper()
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3, false)
	g.BuildIn()
	ups, err := gen.UpdateStream(g, 1, 64, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	ov, _, err := graph.ApplyOverlay(g, ups[0])
	if err != nil {
		t.Fatal(err)
	}
	build := func(backend core.Backend, ov *graph.Overlay) *Engine {
		m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
		opts := core.GaloisDefaults(6)
		opts.BothDirections = true
		opts.Backend = backend
		var r *core.Runtime
		if ov != nil {
			r, err = core.NewOverlay(m, ov, opts)
		} else {
			r, err = core.New(m, g, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return New(r, Config{Rep: RepDense, Dir: DirPull})
	}
	return map[string]*Engine{
		"raw":        build(core.BackendRaw, nil),
		"compressed": build(core.BackendCompressed, nil),
		"overlay":    build(core.BackendCompressed, ov),
	}
}

// TestGatherRoundHandsEachVertexItsInRow: a Gather round hands the range
// program every vertex once, each with exactly the in-row a Cursor walks,
// and returns an empty frontier.
func TestGatherRoundHandsEachVertexItsInRow(t *testing.T) {
	for name, e := range gatherEngines(t) {
		t.Run(name, func(t *testing.T) {
			n := e.R.NumNodes()
			rows := make([][]graph.Node, n)
			calls := make([]int, n)
			next := e.EdgeMap(e.FullFrontier(), EdgeMapArgs{
				Gather: func(lo, hi graph.Node, in Rows) {
					for v := lo; v < hi; v++ {
						calls[v]++
						rows[v] = slices.Clone(in.Row(v))
					}
				},
			})
			if !next.Empty() {
				t.Fatalf("Gather round activated %d vertices", next.Count())
			}
			for v := range n {
				var want []graph.Node
				c := e.in.Adj.Cursor(graph.Node(v))
				for {
					u, ok := c.Next()
					if !ok {
						break
					}
					want = append(want, u)
				}
				if calls[v] != 1 || !slices.Equal(rows[v], want) {
					t.Fatalf("v=%d: %d calls with row %v, want one call with %v", v, calls[v], rows[v], want)
				}
			}
		})
	}
}

// TestGatherExcludesPerEdgeFields: setting Gather beside a program it
// replaces or a field it cannot honour is a kernel bug, and the panic names
// the field.
func TestGatherExcludesPerEdgeFields(t *testing.T) {
	e := gatherEngines(t)["raw"]
	gather := func(graph.Node, graph.Node, Rows) {}
	for field, args := range map[string]EdgeMapArgs{
		"Pull":      {Gather: gather, Pull: func(v, u graph.Node, ei int64) (bool, bool) { return false, false }},
		"Push":      {Gather: gather, Push: func(u, d graph.Node, ei int64) bool { return false }},
		"PullRow":   {Gather: gather, PullRow: func(graph.Node, []graph.Node, []uint32) (bool, bool, int) { return false, false, 0 }},
		"PushRow":   {Gather: gather, PushRow: func(_ graph.Node, _ []graph.Node, _ []uint32, c []graph.Node) []graph.Node { return c }},
		"PullCond":  {Gather: gather, PullCond: func(graph.Node) bool { return true }},
		"Symmetric": {Gather: gather, Symmetric: true},
	} {
		t.Run(field, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "EdgeMapArgs."+field) {
					t.Fatalf("panic %q does not name EdgeMapArgs.%s", msg, field)
				}
			}()
			e.EdgeMap(e.FullFrontier(), args)
		})
	}
}

// TestGatherRoundAllocatesNoMoreThanPull: the per-thread row buffers are
// reused across rounds, so a warmed Gather round over compressed adjacency
// allocates no more than the pull round with the same charges — nothing
// per chunk or per vertex.
func TestGatherRoundAllocatesNoMoreThanPull(t *testing.T) {
	e := gatherEngines(t)["compressed"]
	full := e.FullFrontier()
	sums := make([]float64, e.R.NumNodes())
	sum := func(row []graph.Node) float64 {
		acc := 0.0
		for _, u := range row {
			acc += float64(u)
		}
		return acc
	}
	gatherArgs := EdgeMapArgs{Gather: func(lo, hi graph.Node, in Rows) {
		for v := lo; v < hi; v++ {
			sums[v] = sum(in.Row(v))
		}
	}}
	pullArgs := EdgeMapArgs{PullRow: func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
		sums[v] = sum(row)
		return false, false, len(row)
	}}
	e.EdgeMap(full, gatherArgs)
	gather := testing.AllocsPerRun(20, func() { e.EdgeMap(full, gatherArgs) })
	pull := testing.AllocsPerRun(20, func() { e.EdgeMap(full, pullArgs) })
	t.Logf("allocations per round: Gather %.1f, pull %.1f", gather, pull)
	if gather > pull {
		t.Fatalf("Gather round allocates %.1f times, pull round %.1f", gather, pull)
	}
}
