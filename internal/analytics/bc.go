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
			// won), and u's sigma is frozen (u is one level up), so it
			// is read once per row.
			PushRow: func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				su := sigma[u].Load()
				for _, d := range row {
					dd := dist[d].Load()
					if dd == Infinity {
						if dist[d].CompareAndSwap(Infinity, lvl) {
							claims = append(claims, d)
						}
						dd = lvl
					}
					if dd == lvl {
						sigma[d].Add(su)
					}
				}
				return claims
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
	// successor relation, so delta writes race-free per vertex: v's row
	// folds its dependency in a register, adding the terms in row order as
	// per-edge updates would, and stores it once.
	for l := len(levels) - 1; l >= 0; l-- {
		e.EdgeMap(e.SparseFrontier(levels[l]), engine.EdgeMapArgs{
			PushRow: func(v graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				next := dist[v].Load() + 1
				sv := float64(sigma[v].Load())
				acc := delta[v]
				for _, d := range row {
					if dist[d].Load() == next {
						if sd := float64(sigma[d].Load()); sd > 0 {
							acc += sv / sd * (1 + delta[d])
						}
					}
				}
				delta[v] = acc
				return claims
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
