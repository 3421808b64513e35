package analytics

import (
	"math"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Incremental recomputation for the streaming-update path (see DESIGN.md
// "Streaming updates & incremental kernels"). Both kernels here take the
// prior epoch's artifacts and the graph.Delta of the applied batch and
// produce outputs BITWISE IDENTICAL to a from-scratch run on the
// post-update graph — not approximately refreshed — while charging only
// the work the delta actually forces. That exactness is what lets the
// serving layer keep its provable result-cache story across updates, and
// it is locked by the conformance suite across GOMAXPROCS 1/3/8 and both
// storage backends.
//
//   - cc: the prior labels are a converged min-ID labeling, so every old
//     component is represented by its root. Insert-only deltas can only
//     merge components: union-by-min over the inserted pairs followed by
//     one streaming relabel reproduces the canonical labeling with no
//     adjacency traversal at all. Deletions can split components, which
//     label reuse cannot express — callers fall back to full recompute.
//   - pr: power iteration from the uniform init is replayed, but a round's
//     gather runs only for "tainted" vertices — those whose inputs can
//     differ from the prior epoch's recorded trajectory (the structurally
//     changed region, grown by one hop per round). Untainted vertices copy
//     the recorded value, which is bitwise what the gather would produce.
//     When the taint region grows past a threshold, or the replay runs out
//     of recorded rounds, the remaining rounds execute as ordinary full
//     pulls (still bitwise exact — the fallback is seamless mid-run).

// PRSeedMaxRounds caps the per-round rank vectors a PRSeed records. Taint
// grows by one hop per round, so on low-diameter graphs the trajectory
// stops paying for itself after a handful of rounds anyway; the cap bounds
// seed memory at PRSeedMaxRounds * 8 bytes per vertex.
const PRSeedMaxRounds = 32

// prIncFullFrac switches an incremental pr round to a full pull once the
// tainted region's edge work (in-gathers plus the out-push that advances
// the taint) exceeds |E|/prIncFullFrac: past that, per-vertex gathers and
// taint maintenance cost more than one streaming full round saves.
const prIncFullFrac = 2

// PRSeed is the prior-epoch pagerank artifact an incremental run resumes
// from: the recorded rank trajectory of the first PRSeedMaxRounds rounds.
// Any run's trajectory is bitwise the from-scratch trajectory on its
// graph (the incremental invariant), so seeds chain across epochs.
type PRSeed struct {
	// Rounds is the total round count of the recorded run (may exceed
	// len(Ranks) when the run outlived the recording cap).
	Rounds int
	// Ranks[k] is the rank vector after round k+1 (round 0 is the uniform
	// init and is never stored).
	Ranks [][]float64
}

// PageRankRecord is PageRank that additionally records the seed the next
// epoch's incremental run resumes from. Recording is host-side and
// uncharged (it models retaining outputs outside the measured window), so
// the Result is byte-identical to a plain PageRank call.
func PageRankRecord(r *core.Runtime, tol float64, maxRounds int) (*Result, *PRSeed) {
	seed := &PRSeed{}
	res := pageRank(r, tol, maxRounds, func(round int, rank []float64) {
		if round <= PRSeedMaxRounds {
			seed.Ranks = append(seed.Ranks, append([]float64(nil), rank...))
		}
		seed.Rounds = round
	})
	return res, seed
}

// PageRankIncremental recomputes pagerank on a post-update runtime, seeded
// by the prior epoch's recorded trajectory and the applied batch's Delta.
// The returned ranks (and round count) are bitwise identical to
// PageRank(r, tol, maxRounds); only the charging differs. The second
// return value is the new epoch's seed.
func PageRankIncremental(r *core.Runtime, seed *PRSeed, delta *graph.Delta, tol float64, maxRounds int) (*Result, *PRSeed) {
	if r.InOffsets == nil {
		panic("analytics: PageRankIncremental requires a runtime with in-edges (pull operator)")
	}
	n := r.G.NumNodes()
	if seed == nil || len(seed.Ranks) == 0 || len(seed.Ranks[0]) != n || delta == nil {
		panic("analytics: PageRankIncremental needs a prior trajectory for this graph and the update delta")
	}
	w := startWindow(r.M)
	s := newPRState(r)
	// te owns the taint-propagation pushes with sparse worklists, so taint
	// maintenance is charged proportionally to the tainted region rather
	// than to |V|.
	te := engine.New(r, engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush})
	taintArr := r.NodeArray("pr.taint", 1)
	seedArr := r.NodeArray("pr.seedranks", 8)
	tainted := make([]bool, n)

	// Structural taint S: vertices whose round inputs differ regardless of
	// rank movement — changed in-neighborhoods, plus every out-neighbor of
	// a source whose degree (contribution divisor) moved.
	S := delta.Dsts
	if len(delta.DegChanged) > 0 {
		f := te.EdgeMap(te.SparseFrontier(delta.DegChanged), engine.EdgeMapArgs{PushRow: claimRow})
		S = unionSorted(S, f.Vertices())
	}
	T := S
	for _, v := range T {
		tainted[v] = true
	}

	// taintEdges is the edge work an incremental round over T costs: the
	// whole-in-neighborhood gathers plus the out-push advancing the taint.
	// It is a pure function of T, so the full-mode switchover round is
	// deterministic.
	taintEdges := func(T []graph.Node) int64 {
		var total int64
		for _, v := range T {
			total += r.InDegree(v) + r.OutDegree(v)
		}
		return total
	}

	rec := &PRSeed{}
	fullMode := false
	rounds := 0
	for rounds < maxRounds {
		rounds++
		if !fullMode && (rounds > len(seed.Ranks) || taintEdges(T) > r.NumEdges()/prIncFullFrac) {
			fullMode = true
		}
		s.publishContrib()
		if fullMode {
			s.fullPullRound()
		} else {
			old := seed.Ranks[rounds-1]
			// Copy pass: untainted vertices take the recorded value —
			// bitwise the gather result, at streaming cost.
			s.e.VertexMap(engine.VertexMapArgs{
				Range: func(lo, hi graph.Node) {
					for v := lo; v < hi; v++ {
						if !tainted[v] {
							s.next[v] = old[v]
						}
					}
				},
				SeqRead:  []*memsim.Array{seedArr, taintArr},
				SeqWrite: []*memsim.Array{s.nextArr},
				Ops:      true,
			})
			s.gatherTainted(T)
			s.residualPass()
		}
		s.swap()
		if rounds <= PRSeedMaxRounds {
			rec.Ranks = append(rec.Ranks, append([]float64(nil), s.rank...))
		}
		if s.residual() < tol {
			break
		}
		if !fullMode && rounds < maxRounds && rounds < len(seed.Ranks) {
			// Advance the taint region one hop for the next round:
			// T' = S ∪ out-neighbors(T) on the new graph.
			f := te.EdgeMap(te.SparseFrontier(T), engine.EdgeMapArgs{PushRow: claimRow})
			next := unionSorted(S, f.Vertices())
			for _, v := range T {
				tainted[v] = false
			}
			for _, v := range next {
				tainted[v] = true
			}
			T = next
		}
	}
	rec.Rounds = rounds
	return w.finish(&Result{
		App:       "pr",
		Algorithm: "topo-pull-inc",
		Rounds:    rounds,
		Rank:      append([]float64(nil), s.rank...),
	}), rec
}

// claimRow is the taint pushes' row program: it claims every out-neighbor.
func claimRow(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
	return append(claims, row...)
}

// gatherTainted re-gathers the whole in-row of every tainted vertex through
// the gather fullPullRound runs, so the recomputed values are what a full
// round would produce by construction.
func (s *prState) gatherTainted(T []graph.Node) {
	in := s.r.InView()
	s.r.ParallelItems(int64(len(T)), func(t *memsim.Thread, lo, hi int64) {
		var edges int64
		b := s.r.RowBuf(t)
		for _, v := range T[lo:hi] {
			in.ChargeVisit(t, v, false)
			row, _ := in.ReadRow(b, v, false)
			s.gather(v, row)
			edges += int64(len(row))
		}
		s.contribArr.RandomN(t, edges, false)
		s.nextArr.RandomN(t, hi-lo, true)
		t.Op(int(edges + (hi - lo)))
	})
}

// residualPass computes the per-chunk L1 residual shards over every vertex
// with the same static chunk ownership (and therefore the same float fold
// order) as fullPullRound's OnPullChunk, so mixed incremental/full runs
// cross the tolerance on exactly the same round as a from-scratch run.
func (s *prState) residualPass() {
	for i := range s.resid {
		s.resid[i] = 0
	}
	s.r.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		s.rankArr.ReadRange(t, int64(lo), int64(hi))
		s.nextArr.ReadRange(t, int64(lo), int64(hi))
		local := 0.0
		for v := lo; v < hi; v++ {
			local += math.Abs(s.next[v] - s.rank[v])
		}
		s.resid[t.ID] += local
		t.Op(int(hi - lo))
	})
}

// unionSorted merges two ascending, duplicate-free vertex slices.
func unionSorted(a, b []graph.Node) []graph.Node {
	out := make([]graph.Node, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// CCIncremental recomputes connected components after an insert-only batch
// from the prior epoch's converged labels. Old labels are a min-ID
// labeling, so each old component is represented by its root (the label is
// the root's own ID); inserted edges can only merge those components.
// Union-by-min over the inserted pairs builds the merged root forest —
// touching only batch-sized state, no adjacency traversal — and one
// streaming relabel maps every vertex through the resolved forest. The
// result is the canonical min-ID labeling, bitwise identical to any of the
// full cc variants on the post-update graph. Panics if the delta contains
// deletions (they can split components; callers fall back to full
// recompute — see frameworks.Plan).
func CCIncremental(r *core.Runtime, prior []uint32, delta *graph.Delta) *Result {
	n := r.G.NumNodes()
	if len(prior) != n {
		panic("analytics: CCIncremental prior labels do not match the graph")
	}
	if delta == nil || delta.HasDeletes {
		panic("analytics: CCIncremental requires an insert-only delta")
	}
	w := startWindow(r.M)
	priorArr := r.NodeArray("cc.labels.prior", 4)
	labArr := r.NodeArray("cc.labels", 4)
	rootsLen := int64(2 * len(delta.Inserted))
	if rootsLen < 1 {
		rootsLen = 1
	}
	// rootsArr models the touched-root table union-find reads and writes;
	// it is bounded by twice the batch size.
	rootsArr := r.ScratchArray("cc.roots", rootsLen, 4)

	// parent holds entries only for touched old roots (absent = identity).
	parent := make(map[uint32]uint32, 2*len(delta.Inserted))
	var touched []uint32
	get := func(x uint32) uint32 {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			touched = append(touched, x)
			return x
		}
		return p
	}
	// Hook phase: sequential over the sorted batch on one simulated
	// thread. Linking always points the larger root at the smaller, so the
	// final root of a merged set is its minimum vertex ID — the canonical
	// label — regardless of hook order; the fixed order just makes the
	// intermediate chains (and their charges) deterministic too.
	r.M.Parallel(1, func(t *memsim.Thread) {
		var steps int64
		find := func(x uint32) uint32 {
			for {
				p := get(x)
				if p == x {
					return x
				}
				if gp := get(p); gp != p {
					parent[x] = gp // path halving
					steps++
				}
				x = p
				steps++
			}
		}
		for _, e := range delta.Inserted {
			ra, rb := find(prior[e.Src]), find(prior[e.Dst])
			switch {
			case ra < rb:
				parent[rb] = ra
				steps++
			case rb < ra:
				parent[ra] = rb
				steps++
			}
		}
		// Resolve every touched root to its final root so the relabel pass
		// below is a single probe per vertex.
		for _, x := range touched {
			parent[x] = find(x)
			steps++
		}
		priorArr.RandomN(t, int64(2*len(delta.Inserted)), false)
		rootsArr.RandomN(t, steps, true)
		t.Op(len(delta.Inserted))
	})

	// Relabel: stream the prior labels, probe the resolved root table, and
	// publish. Each vertex has one owning chunk, so the pass is
	// deterministic under any interleaving; parent is read-only here.
	cur := make([]uint32, n)
	r.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		priorArr.ReadRange(t, int64(lo), int64(hi))
		rootsArr.RandomN(t, int64(hi-lo), false)
		labArr.WriteRange(t, int64(lo), int64(hi))
		t.Op(int(hi - lo))
		for v := lo; v < hi; v++ {
			l := prior[v]
			if nl, ok := parent[l]; ok {
				l = nl
			}
			cur[v] = l
		}
	})
	return w.finish(&Result{
		App:       "cc",
		Algorithm: "inc-unionfind",
		Rounds:    1,
		Labels:    cur,
	})
}
