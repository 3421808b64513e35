package analytics

import (
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// KCoreDefaultK is the paper's k (§3: "The k in kcore is 100"). Scaled
// inputs have proportionally lower degrees, so the harness passes a scaled
// k; the kernel takes it as a parameter.
const KCoreDefaultK = 100

// kcoreDegrees computes the undirected degree (out + in) of every vertex.
// kcore views the graph as undirected, so the transpose is required.
func kcoreDegrees(r *core.Runtime, e *engine.Engine) ([]atomic.Int64, *memsim.Array) {
	if r.InOffsets == nil {
		panic("analytics: kcore requires a runtime with in-edges (undirected degrees)")
	}
	deg := make([]atomic.Int64, r.G.NumNodes())
	arr := r.NodeArray("kcore.deg", 8)
	e.VertexMap(engine.VertexMapArgs{
		Range: func(lo, hi graph.Node) {
			for v := lo; v < hi; v++ {
				deg[v].Store(r.OutDegree(v) + r.InDegree(v))
			}
		},
		SeqRead:  []*memsim.Array{r.Offsets, r.InOffsets},
		SeqWrite: []*memsim.Array{arr},
		Ops:      true,
	})
	return deg, arr
}

// kcoreResult converts surviving degrees into core membership.
func kcoreResult(deg []atomic.Int64, k int64) []bool {
	in := make([]bool, len(deg))
	for v := range deg {
		in[v] = deg[v].Load() >= k
	}
	return in
}

// KCore is k-core decomposition by cascading peeling over the operator
// engine: a VertexFilter seeds the frontier with every vertex already
// below k, then each round peels the frontier, decrementing undirected
// neighbor degrees through a symmetric push; a vertex whose degree drops
// below k is activated for the next round. cfg selects whether the
// cascade's frontiers are sparse worklists (Galois-style peeling, touching
// only the peeled vertices) or dense bit-vectors (the GBBS-style rounds
// that rescan the frontier bit-vector every peel level).
func KCore(r *core.Runtime, cfg engine.Config, k int64) *Result {
	w := startWindow(r.M)
	e := engine.New(r, cfg)
	deg, degArr := kcoreDegrees(r, e)
	removed := make([]atomic.Bool, r.G.NumNodes())

	// Seed: all vertices already below k.
	f := e.VertexFilter(engine.VertexMapArgs{
		SeqRead: []*memsim.Array{degArr},
	}, func(v graph.Node) bool {
		return deg[v].Load() < k && !removed[v].Swap(true)
	})

	rounds := 0
	for !f.Empty() {
		rounds++
		f = e.EdgeMap(f, engine.EdgeMapArgs{
			Symmetric: true,
			// Peel u: decrement every undirected neighbor; the single
			// decrement that crosses k-1 activates (and removes) it. A
			// neighbor already peeled is skipped: its degree is below k
			// for good, and only deg >= k is read back (kcoreResult), so
			// the decrement could change nothing. A vertex is marked
			// peeled only after its crossing decrement, so that one is
			// never skipped. The per-edge deg charges are unchanged.
			PushRow: func(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				for _, d := range row {
					if removed[d].Load() {
						continue
					}
					if deg[d].Add(-1) == k-1 && !removed[d].Swap(true) {
						claims = append(claims, d)
					}
				}
				return claims
			},
			PerEdge: []engine.Access{{Arr: degArr, Write: true}},
		})
	}
	return w.finish(&Result{
		App:       "kcore",
		Algorithm: "peel-" + repName(e.Config().Rep),
		Rounds:    rounds,
		InCore:    kcoreResult(deg, k),
		Trace:     e.Trace(),
	})
}

func repName(rep engine.Rep) string {
	switch rep {
	case engine.RepSparse:
		return "sparse"
	case engine.RepDense:
		return "dense"
	default:
		return "hybrid"
	}
}
