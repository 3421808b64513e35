package analytics

import (
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Connected components treats edges as undirected, as all the frameworks in
// the paper do. The label-propagation kernels therefore require the
// transpose (in-edges) so labels flow against edge direction too; the
// pointer-jumping kernel hooks roots and is direction-agnostic.

// CCLabelProp is connected components by label propagation over the
// operator engine, traversing the graph symmetrically (out- and in-edges)
// so labels flow against edge direction too. cfg selects the frontier
// representation and direction policy; shortcut additionally applies the
// Stergiou-style pointer-jumping pass after every round (label[v] =
// label[label[v]]), a non-vertex operator that collapses label chains
// exponentially faster.
//
// Without shortcutting the kernel uses snapshot (bulk-synchronous)
// semantics — labels written in round i are read in round i+1 — so a
// component of diameter D needs ~D rounds; that round count is exactly why
// the plain variant loses on high-diameter web crawls (§5.2). With
// shortcutting labels are relaxed in place (asynchronous reads within a
// round are harmless for a min-reduction).
func CCLabelProp(r *core.Runtime, cfg engine.Config, shortcut bool) *Result {
	if r.InOffsets == nil {
		panic("analytics: CCLabelProp requires a runtime with in-edges (weak components need both directions)")
	}
	w := startWindow(r.M)
	e := engine.New(r, cfg)
	if shortcut {
		res := ccShortcut(r, e)
		return w.finish(res)
	}
	res := ccSnapshot(r, e)
	return w.finish(res)
}

// ccSnapshot is plain label propagation as a vertex program: the only cc
// expressible in GraphIt (§6.1).
func ccSnapshot(r *core.Runtime, e *engine.Engine) *Result {
	n := r.G.NumNodes()
	cur := make([]uint32, n)
	next := make([]atomic.Uint32, n)
	labArr := r.NodeArray("cc.labels", 4)
	nextArr := r.NodeArray("cc.labels.next", 4)
	e.VertexMap(engine.VertexMapArgs{
		Range:    func(lo, hi graph.Node) { initLabels(cur, next, lo, hi) },
		SeqWrite: []*memsim.Array{labArr, nextArr},
	})

	f := e.FullFrontier()
	rounds := 0
	for !f.Empty() {
		rounds++
		cf := f
		f = e.EdgeMap(f, engine.EdgeMapArgs{
			Symmetric: true,
			// Push: scatter u's snapshot label to its neighbors. The
			// SET of vertices whose next label drops is the same under
			// every interleaving (relaxMin is a commutative min over
			// snapshot labels, and some call returns true for each
			// dropped vertex); the sorted merge erases which thread's
			// call it was.
			PushRow: func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				lu := cur[u]
				for _, d := range row {
					if relaxMin(next, d, lu) {
						claims = append(claims, d)
					}
				}
				return claims
			},
			// Pull: gather the minimum snapshot label of v's active
			// neighbors (the direction-optimized form; no early exit —
			// a min-reduction must see the whole neighborhood). Only
			// v's owner lowers next[v] in a pull round, so one relaxMin
			// of the row's minimum leaves next[v], and reports a drop,
			// exactly as one per edge would.
			PullRow: func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
				return relaxMin(next, v, minActiveLabel(cf, cur, row)), false, len(row)
			},
			PerEdge: []engine.Access{{Arr: nextArr, Write: true}},
			// Pull gathers the neighbor's snapshot label per edge and
			// scatters into next.
			PullPerEdge: []engine.Access{{Arr: labArr, Write: false}, {Arr: nextArr, Write: true}},
		})
		// Publish the round: snapshot next into cur.
		e.VertexMap(engine.VertexMapArgs{
			Range:    func(lo, hi graph.Node) { publishLabels(cur, next, lo, hi) },
			SeqRead:  []*memsim.Array{nextArr},
			SeqWrite: []*memsim.Array{labArr},
		})
	}
	return &Result{
		App:       "cc",
		Algorithm: engine.TraversalName(r, e.Config()),
		Rounds:    rounds,
		Labels:    append([]uint32(nil), cur...),
		Trace:     e.Trace(),
	}
}

// ccShortcut is the Galois variant: label propagation with shortcutting
// (Stergiou-style pointer jumping after every propagation round), a
// non-vertex program over (typically sparse) worklists. Rounds are bulk-
// synchronous — labels propagate from the round-start snapshot cur into
// next, and the shortcut jump reads only the frozen next — so the round
// trajectory is deterministic under real parallelism; the jump still
// collapses label chains exponentially, keeping the round count far below
// plain propagation's diameter bound.
func ccShortcut(r *core.Runtime, e *engine.Engine) *Result {
	n := r.G.NumNodes()
	cur := make([]uint32, n)
	next := make([]atomic.Uint32, n)
	labArr := r.NodeArray("cc.labels", 4)
	nextArr := r.NodeArray("cc.labels.next", 4)
	e.VertexMap(engine.VertexMapArgs{
		Range:    func(lo, hi graph.Node) { initLabels(cur, next, lo, hi) },
		SeqWrite: []*memsim.Array{labArr, nextArr},
	})

	f := e.FullFrontier()
	rounds := 0
	for !f.Empty() {
		rounds++
		cf := f
		// Claims are suppressed (return false): the VertexFilter below
		// computes the true next frontier — every vertex changed by
		// propagation or jump — so claiming here would only build a
		// frontier that gets discarded.
		e.EdgeMap(f, engine.EdgeMapArgs{
			Symmetric: true,
			PushRow: func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				lu := cur[u]
				for _, d := range row {
					if lu < cur[d] {
						relaxMin(next, d, lu)
					}
				}
				return claims
			},
			PullRow: func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
				relaxMin(next, v, minActiveLabel(cf, cur, row))
				return false, false, len(row)
			},
			PerEdge: []engine.Access{{Arr: labArr, Write: false}, {Arr: nextArr, Write: true}},
			// Pull gathers the neighbor's snapshot label per edge and
			// relaxes into next.
			PullPerEdge: []engine.Access{{Arr: labArr, Write: false}, {Arr: nextArr, Write: true}},
		})
		// Shortcut pass (non-vertex operator): the neighborhood is the
		// label chain, not the graph edges. Jump through the frozen
		// next labels (which already hold this round's propagation) and
		// publish into cur. The filter activates every vertex whose
		// label changed this round — by propagation or by jump (a
		// superset of what the EdgeMap could have claimed) — keeping
		// jump-lowered vertices flowing so no stale label can strand
		// behind an inactive vertex.
		f = e.VertexFilter(engine.VertexMapArgs{
			SeqRead:   []*memsim.Array{nextArr},
			SeqWrite:  []*memsim.Array{labArr},
			PerVertex: []engine.Access{{Arr: nextArr, Write: false}},
			Ops:       true,
		}, func(v graph.Node) bool {
			l := next[v].Load()
			if ll := next[l].Load(); ll < l {
				l = ll
			}
			changed := l != cur[v]
			cur[v] = l
			return changed
		})
		// Resync next with the shortcutted labels for the coming round.
		e.VertexMap(engine.VertexMapArgs{
			Range: func(lo, hi graph.Node) {
				for v := lo; v < hi; v++ {
					next[v].Store(cur[v])
				}
			},
			SeqRead:  []*memsim.Array{labArr},
			SeqWrite: []*memsim.Array{nextArr},
		})
	}
	return &Result{
		App:       "cc",
		Algorithm: "labelprop-sc",
		Rounds:    rounds,
		Labels:    append([]uint32(nil), cur...),
		Trace:     e.Trace(),
	}
}

// initLabels gives every vertex of [lo, hi) its own ID as its label in cur
// and next.
func initLabels(cur []uint32, next []atomic.Uint32, lo, hi graph.Node) {
	for v := lo; v < hi; v++ {
		cur[v] = uint32(v)
		next[v].Store(uint32(v))
	}
}

// publishLabels snapshots next into cur over [lo, hi).
func publishLabels(cur []uint32, next []atomic.Uint32, lo, hi graph.Node) {
	for v := lo; v < hi; v++ {
		cur[v] = next[v].Load()
	}
}

// minActiveLabel returns the smallest snapshot label of row's vertices
// active in f, or Infinity (above every label) when none is.
func minActiveLabel(f *engine.Frontier, cur []uint32, row []graph.Node) uint32 {
	low := uint32(Infinity)
	for _, u := range row {
		if f.Has(u) {
			low = min(low, cur[u])
		}
	}
	return low
}

// raise sets f. It loads f first, so once f is set the threads that would
// set it again only read the shared line instead of writing it.
func raise(f *atomic.Bool) {
	if !f.Load() {
		f.Store(true)
	}
}

// CCPointerJump is the union-find / pointer-jumping cc used by GAP and
// GBBS (Shiloach-Vishkin family): hook every edge, then jump pointers to
// full compression. Topology-driven (no frontier); the hook phase is an
// edge iteration and the jump phase a VertexMap over label chains. Both
// phases read the round-start snapshot cur and min-reduce into next, so
// the per-round label trajectory (and the hook/jump change counts driving
// termination) are deterministic under real parallelism.
func CCPointerJump(r *core.Runtime) *Result {
	w := startWindow(r.M)
	e := engine.New(r, engine.Config{Rep: engine.RepDense, Dir: engine.DirPush})
	n := r.G.NumNodes()
	cur := make([]uint32, n)
	next := make([]atomic.Uint32, n)
	labArr := r.NodeArray("cc.parent", 4)
	nextArr := r.NodeArray("cc.parent.next", 4)
	e.VertexMap(engine.VertexMapArgs{
		Range:    func(lo, hi graph.Node) { initLabels(cur, next, lo, hi) },
		SeqWrite: []*memsim.Array{labArr, nextArr},
	})
	// publish snapshots next into cur after a hook or jump pass.
	publish := func() {
		e.VertexMap(engine.VertexMapArgs{
			Range:    func(lo, hi graph.Node) { publishLabels(cur, next, lo, hi) },
			SeqRead:  []*memsim.Array{nextArr},
			SeqWrite: []*memsim.Array{labArr},
		})
	}

	rounds := 0
	for {
		rounds++
		var changed atomic.Bool
		// Hook: for every edge (u,d), point the larger snapshot root at
		// the smaller snapshot label. Whether anything changed is judged
		// against the snapshot, so it is interleaving-independent. The
		// hooks of u's own root fold into one relaxMin of the row's
		// smallest label: next holds the same minima either way.
		full := e.FullFrontier()
		e.EdgeMap(full, engine.EdgeMapArgs{
			PushRow: func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				lu := cur[u]
				low, hooked := lu, false
				for _, d := range row {
					switch ld := cur[d]; {
					case lu < ld:
						relaxMin(next, graph.Node(ld), lu)
						hooked = true
					case ld < lu:
						low = min(low, ld)
						hooked = true
					}
				}
				if low < lu {
					relaxMin(next, graph.Node(lu), low)
				}
				if hooked {
					raise(&changed)
				}
				return claims // hooking relinks roots, not the frontier
			},
			PerEdge: []engine.Access{{Arr: labArr, Write: false}, {Arr: nextArr, Write: true}},
		})
		if !changed.Load() {
			break
		}
		publish()
		// Jump: compress pointer chains until every label is a root.
		for {
			var jumped atomic.Bool
			e.VertexMap(engine.VertexMapArgs{
				Range: func(lo, hi graph.Node) {
					jump := false
					for v := lo; v < hi; v++ {
						l := cur[v]
						if ll := cur[l]; ll < l {
							l = ll
							jump = true
						}
						next[v].Store(l)
					}
					if jump {
						raise(&jumped)
					}
				},
				SeqRead:   []*memsim.Array{labArr},
				SeqWrite:  []*memsim.Array{nextArr},
				PerVertex: []engine.Access{{Arr: labArr, Write: false}},
				Ops:       true,
			})
			if !jumped.Load() {
				break
			}
			publish()
		}
	}
	return w.finish(&Result{App: "cc", Algorithm: "pointer-jump", Rounds: rounds, Labels: append([]uint32(nil), cur...)})
}
