package analytics

import (
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
)

// Brandes computes single-source betweenness centrality over the operator
// engine: a forward EdgeMap BFS accumulating shortest-path counts (sigma)
// while recording each level's frontier, then a backward sweep replaying
// the recorded levels deepest-first, accumulating dependencies over the
// BFS DAG. The backward sweep walks out-edges of each vertex filtered to
// the next BFS level, so only the out-direction is required; cfg selects
// the forward frontier representation.
func Brandes(r *core.Runtime, cfg engine.Config, src graph.Node) *Result {
	w := startWindow(r.M)
	e := engine.New(r, cfg)
	n := r.G.NumNodes()

	dist, distArr := newDistArray(r, "bc.dist")
	sigma := make([]atomic.Uint64, n)
	delta := make([]float64, n)
	sigmaArr := r.NodeArray("bc.sigma", 8)
	deltaArr := r.NodeArray("bc.delta", 8)

	dist[src].Store(0)
	sigma[src].Store(1)

	// Forward phase: level-synchronous BFS recording per-level frontiers.
	levels := [][]graph.Node{{src}}
	f := e.NewFrontier(src)
	for !f.Empty() {
		lvl := uint32(len(levels))
		f = e.EdgeMap(f, engine.EdgeMapArgs{
			// The CAS claims each newly reached d exactly once (the
			// sorted merge erases which thread won); it runs only when
			// a plain load still sees d unvisited, so the edges into
			// already-visited vertices — most of them — skip the
			// locked instruction. sigma accumulates once per DAG edge
			// — each edge has one owning thread, the level test is
			// deterministic (dist[d] only transitions Infinity -> lvl
			// within the round, so after the CAS it is lvl whoever
			// won), and u's sigma is frozen (u is one level up).
			Push: func(u, d graph.Node, ei int64) bool {
				dd, found := dist[d].Load(), false
				if dd == Infinity {
					found = dist[d].CompareAndSwap(Infinity, lvl)
					dd = lvl
				}
				if dd == lvl {
					sigma[d].Add(sigma[u].Load())
				}
				return found
			},
			PerEdge: []engine.Access{
				{Arr: distArr, Write: true},
				{Arr: sigmaArr, Write: true},
			},
		})
		if !f.Empty() {
			levels = append(levels, f.Vertices())
		}
	}

	// Backward phase: accumulate dependencies level by level, deepest
	// first, replaying the recorded frontiers as sparse worklists (both
	// the Galois and the dense-framework implementations walk explicit
	// level lists here). Within one level no two vertices share a
	// successor relation, so delta writes race-free per vertex.
	for l := len(levels) - 1; l >= 0; l-- {
		e.EdgeMap(e.SparseFrontier(levels[l]), engine.EdgeMapArgs{
			Push: func(v, d graph.Node, ei int64) bool {
				if dist[d].Load() == dist[v].Load()+1 {
					if sd := float64(sigma[d].Load()); sd > 0 {
						delta[v] += float64(sigma[v].Load()) / sd * (1 + delta[d])
					}
				}
				return false
			},
			PerEdge: []engine.Access{
				{Arr: distArr, Write: false},
				{Arr: sigmaArr, Write: false},
				{Arr: deltaArr, Write: false},
			},
			PerVertex: []engine.Access{{Arr: deltaArr, Write: true}},
		})
	}

	return w.finish(&Result{
		App:        "bc",
		Algorithm:  "brandes-" + repName(e.Config().Rep),
		Rounds:     len(levels),
		Dist:       snapshot(dist),
		Centrality: append([]float64(nil), delta...),
		Trace:      e.Trace(),
	})
}
