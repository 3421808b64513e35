package analytics

import (
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// newDistArray builds the native atomic distance array plus its simulated
// twin, initialized to Infinity (charged as a parallel streaming fill). It
// deliberately takes the bare runtime, not the engine, so asynchronous
// kernels (delta-stepping) can use it without allocating engine frontier
// storage they never touch.
func newDistArray(r *core.Runtime, name string) ([]atomic.Uint32, *memsim.Array) {
	n := r.G.NumNodes()
	dist := make([]atomic.Uint32, n)
	arr := r.NodeArray(name, 4)
	r.ParallelItems(int64(n), func(t *memsim.Thread, lo, hi int64) {
		for i := lo; i < hi; i++ {
			dist[i].Store(Infinity)
		}
		arr.WriteRange(t, lo, hi)
	})
	return dist, arr
}

// BFS is breadth-first search over the operator engine: bulk-synchronous
// rounds whose frontier representation (sparse worklist, dense bit-vector,
// or auto-converting) and traversal direction (push, pull with early exit,
// or Beamer-style direction-optimizing) are selected by cfg. All §5
// variants of the paper are points in this configuration space.
func BFS(r *core.Runtime, cfg engine.Config, src graph.Node) *Result {
	w := startWindow(r.M)
	e := engine.New(r, cfg)
	dist, distArr := newDistArray(r, "bfs.dist")

	dist[src].Store(0)
	f := e.NewFrontier(src)
	rounds := 0
	for !f.Empty() {
		rounds++
		level := uint32(rounds)
		args := engine.EdgeMapArgs{
			// The CAS has exactly one winner per newly reached d, so
			// the claimed SET is the same under every interleaving;
			// which thread claims varies, but the engine's sorted merge
			// erases attribution. A plain load first keeps the edges
			// into visited vertices — most of them — off the locked
			// instruction.
			PushRow: func(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				for _, d := range row {
					if dist[d].Load() == Infinity && dist[d].CompareAndSwap(Infinity, level) {
						claims = append(claims, d)
					}
				}
				return claims
			},
			PerEdge: []engine.Access{{Arr: distArr, Write: true}},
		}
		if e.CanPull() {
			cur := f
			args.PullRow = func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
				for k, u := range row {
					if cur.Has(u) {
						dist[v].Store(level)
						return true, true, k + 1
					}
				}
				return false, false, len(row)
			}
			args.PullCond = func(v graph.Node) bool { return dist[v].Load() == Infinity }
			args.PullSeqRead = []*memsim.Array{distArr}
			// Pull tests only frontier bits (charged per shard); it has
			// no per-edge label gather.
			args.PullPerEdge = []engine.Access{}
		}
		f = e.EdgeMap(f, args)
	}
	return w.finish(&Result{
		App:       "bfs",
		Algorithm: engine.TraversalName(r, e.Config()),
		Rounds:    rounds,
		Dist:      snapshot(dist),
		Trace:     e.Trace(),
	})
}

func snapshot(a []atomic.Uint32) []uint32 {
	out := make([]uint32, len(a))
	for i := range a {
		out[i] = a[i].Load()
	}
	return out
}
