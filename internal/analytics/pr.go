package analytics

import (
	"math"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// PageRank defaults, matching §3: tolerance 1e-6, at most 100 rounds,
// damping 0.85.
const (
	PRDefaultTolerance = 1e-6
	PRDefaultMaxRounds = 100
	prDamping          = 0.85
)

// prState bundles everything one pagerank power-iteration round touches.
// PageRank drives it for every round; the incremental variant
// (PageRankIncremental) reuses publishContrib and fullPullRound verbatim so
// its full-mode rounds charge and compute exactly what the from-scratch
// kernel would, and its tainted re-gathers run the same gather, which is
// what keeps its rank trajectory bitwise identical.
type prState struct {
	r *core.Runtime
	e *engine.Engine

	rank, next, contrib          []float64
	rankArr, nextArr, contribArr *memsim.Array
	base                         float64
	full                         *engine.Frontier
	// resid shards the per-chunk residual contributions by thread; the
	// fold sums them in thread-index order, so the float total (and with
	// it the tolerance-crossing round) is deterministic — an atomic
	// accumulator would add in arrival order and make the last round a
	// race.
	resid []float64
}

// newPRState allocates the iteration state. The allocation order (engine
// scratch, then rank/next/contrib node arrays) is part of the charged
// footprint and must not change under the goldens.
func newPRState(r *core.Runtime) *prState {
	e := engine.New(r, engine.Config{Rep: engine.RepDense, Dir: engine.DirPull})
	n := r.G.NumNodes()
	s := &prState{
		r:          r,
		e:          e,
		rank:       make([]float64, n),
		next:       make([]float64, n),
		contrib:    make([]float64, n), // rank[v] / outDegree(v), published per round
		rankArr:    r.NodeArray("pr.rank", 8),
		nextArr:    r.NodeArray("pr.next", 8),
		contribArr: r.NodeArray("pr.contrib", 8),
		base:       (1 - prDamping) / float64(n),
		resid:      make([]float64, r.RegionThreads()),
	}
	init := 1.0 / float64(n)
	e.VertexMap(engine.VertexMapArgs{
		Range: func(lo, hi graph.Node) {
			for v := lo; v < hi; v++ {
				s.rank[v] = init
			}
		},
		SeqWrite: []*memsim.Array{s.rankArr},
	})
	s.full = e.FullFrontier()
	return s
}

// publishContrib streams contributions (rank[v] / outDegree(v)) for the
// coming gather round. The degrees come from the raw offsets, which every
// form walks; only an overlay's merged degrees take the dispatch.
func (s *prState) publishContrib() {
	off := s.r.OutView().Rows.Offsets
	ov := s.r.Ov
	s.e.VertexMap(engine.VertexMapArgs{
		Range: func(lo, hi graph.Node) {
			rank, contrib := s.rank, s.contrib
			for v := lo; v < hi; v++ {
				d := off[v+1] - off[v]
				if ov != nil {
					d = ov.OutDegree(v)
				}
				if d > 0 {
					contrib[v] = rank[v] / float64(d)
				} else {
					contrib[v] = 0
				}
			}
		},
		SeqRead:  []*memsim.Array{s.rankArr, s.r.Offsets},
		SeqWrite: []*memsim.Array{s.contribArr},
		Ops:      true,
	})
}

// gather sets v's next rank from its whole in-row, summing the
// contributions in row order. It is the one definition of a pagerank
// gather: full pull rounds (gatherRange) and incremental re-gathers both
// call it, so their float results agree bit for bit.
func (s *prState) gather(v graph.Node, row []graph.Node) {
	contrib := s.contrib
	acc := 0.0
	for _, u := range row {
		acc += contrib[u]
	}
	s.next[v] = s.base + prDamping*acc
}

// gatherRange is a full pull round's range program: gather over [lo, hi).
func (s *prState) gatherRange(lo, hi graph.Node, in engine.Rows) {
	for v := lo; v < hi; v++ {
		s.gather(v, in.Row(v))
	}
}

// fullPullRound gathers in-neighbor contributions for every vertex and
// accumulates the residual per chunk into the owning thread's shard.
func (s *prState) fullPullRound() {
	for i := range s.resid {
		s.resid[i] = 0
	}
	s.e.EdgeMap(s.full, engine.EdgeMapArgs{
		Gather: s.gatherRange,
		OnPullChunk: func(t *memsim.Thread, lo, hi graph.Node) {
			local := 0.0
			for v := lo; v < hi; v++ {
				local += math.Abs(s.next[v] - s.rank[v])
			}
			s.resid[t.ID] += local
		},
		PerEdge:      []engine.Access{{Arr: s.contribArr, Write: false}},
		PullSeqWrite: []*memsim.Array{s.nextArr},
	})
}

// swap publishes the round: next becomes rank (values and simulated
// arrays).
func (s *prState) swap() {
	s.rank, s.next = s.next, s.rank
	s.rankArr, s.nextArr = s.nextArr, s.rankArr
}

// residual folds the per-thread shards in thread-index order.
func (s *prState) residual() float64 {
	total := 0.0
	for _, x := range s.resid {
		total += x
	}
	return total
}

// PageRank is the topology-driven pull pagerank every framework in the
// paper shares ("all systems use the same algorithm for pr"): each round a
// VertexMap publishes contributions (rank[v] / outDegree(v)), then a
// full-frontier Gather EdgeMap sums each in-row; the run
// stops when the L1 residual falls below tol or after maxRounds rounds (both
// taken literally; frameworks.Params substitutes the paper's defaults).
// Requires in-edges.
func PageRank(r *core.Runtime, tol float64, maxRounds int) *Result {
	return pageRank(r, tol, maxRounds, nil)
}

// pageRank runs the power iteration, invoking record (when non-nil) with
// the published rank vector after every round. Recording is host-side
// bookkeeping for the streaming-update seed (PRSeed) and is never charged:
// like result marshaling, it models retaining outputs outside the measured
// kernel window, so a recorded run's simulated numbers are byte-identical
// to an unrecorded one.
func pageRank(r *core.Runtime, tol float64, maxRounds int, record func(round int, rank []float64)) *Result {
	if r.InOffsets == nil {
		panic("analytics: PageRank requires a runtime with in-edges (pull operator)")
	}
	w := startWindow(r.M)
	s := newPRState(r)
	rounds := 0
	for rounds < maxRounds {
		rounds++
		s.publishContrib()
		s.fullPullRound()
		s.swap()
		if record != nil {
			record(rounds, s.rank)
		}
		if s.residual() < tol {
			break
		}
	}
	return w.finish(&Result{
		App:       "pr",
		Algorithm: "topo-pull",
		Rounds:    rounds,
		Rank:      append([]float64(nil), s.rank...),
		Trace:     s.e.Trace(),
	})
}
