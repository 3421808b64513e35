package analytics

import (
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// relaxMin lowers dist[v] to d with a CAS loop, reporting whether it
// improved the stored value.
func relaxMin(dist []atomic.Uint32, v graph.Node, d uint32) bool {
	for {
		old := dist[v].Load()
		if old <= d {
			return false
		}
		if dist[v].CompareAndSwap(old, d) {
			return true
		}
	}
}

// relaxIntent is one recorded relaxation (lower d's distance to nd),
// buffered per thread during a delta-stepping iteration and applied
// sequentially at the barrier.
type relaxIntent struct {
	d  graph.Node
	nd uint32
}

// SSSPDeltaStep is delta-stepping over priority buckets: the Galois variant
// the paper reports as the best sssp algorithm on every input (Figure 7c).
// Buckets are processed in ascending priority; each bucket drains in
// bulk-synchronous inner iterations in which threads scan their statically
// owned share of the bucket against the frozen distance array and record
// relaxations as per-thread intents. The machine applies the intents at the
// barrier in thread-index order — distances min-reduce, improved vertices
// enqueue into their new buckets — so the bucket trajectory, every charge,
// and the final distances are byte-identical under any interleaving, while
// the scan (all the simulated work) still runs on all cores. It schedules
// over priorities and sparse lists, outside the bulk-synchronous operator
// engine (exactly the Galois capabilities §5.1 credits).
func SSSPDeltaStep(r *core.Runtime, src graph.Node, delta uint32) *Result {
	if !r.Weighted() {
		panic("analytics: SSSPDeltaStep requires a weighted runtime")
	}
	if delta == 0 {
		delta = 1
	}
	w := startWindow(r.M)
	dist, distArr := newDistArray(r, "sssp.dist")
	wlArr := r.ScratchArray("sssp.wl", int64(r.G.NumNodes()), 4)

	// chargeWl charges a k-element sequential worklist transfer. Bucket
	// lists can exceed |V| (a vertex re-enqueues once per improvement), so
	// the charge wraps around the scratch array rather than indexing past
	// it.
	n := int64(r.G.NumNodes())
	chargeWl := func(t *memsim.Thread, k int64, write bool) {
		for k > 0 {
			c := k
			if c > n {
				c = n
			}
			if write {
				wlArr.WriteRange(t, 0, c)
			} else {
				wlArr.ReadRange(t, 0, c)
			}
			k -= c
		}
	}

	out := r.OutView()
	buckets := map[int][]graph.Node{0: {src}}
	dist[src].Store(0)
	intents := make([][]relaxIntent, r.RegionThreads())
	epochs := 0
	for {
		// Lowest non-empty priority.
		p := -1
		for pr, b := range buckets {
			if len(b) == 0 {
				continue
			}
			if p < 0 || pr < p {
				p = pr
			}
		}
		if p < 0 {
			break
		}
		epochs++
		// Drain bucket p: same-priority relaxations re-open it, so the
		// inner loop runs until no intent lands back in p.
		for len(buckets[p]) > 0 {
			items := buckets[p]
			buckets[p] = nil
			r.ParallelItems(int64(len(items)), func(t *memsim.Thread, lo, hi int64) {
				chargeWl(t, hi-lo, false)
				buf := intents[t.ID]
				var pushed int64
				for _, v := range items[lo:hi] {
					dv := dist[v].Load() // frozen during the region
					if int(dv/delta) < p {
						continue // stale entry, already settled
					}
					out.ChargeVisit(t, v, true)
					row, wts := out.ReadRow(r.RowBuf(t), v, true)
					distArr.RandomN(t, int64(len(row)), true)
					t.Op(len(row))
					wts = wts[:len(row)]
					for k, d := range row {
						nd := dv + wts[k]
						if nd < dv { // overflow guard
							continue
						}
						if nd < dist[d].Load() {
							buf = append(buf, relaxIntent{d: d, nd: nd})
							pushed++
						}
					}
				}
				intents[t.ID] = buf
				chargeWl(t, pushed, true)
			})
			// Barrier: apply intents in thread-index order.
			for i := range intents {
				for _, in := range intents[i] {
					if in.nd < dist[in.d].Load() {
						dist[in.d].Store(in.nd)
						pr := int(in.nd / delta)
						buckets[pr] = append(buckets[pr], in.d)
					}
				}
				intents[i] = intents[i][:0]
			}
		}
		delete(buckets, p)
	}
	return w.finish(&Result{App: "sssp", Algorithm: "delta-step", Rounds: epochs, Dist: snapshot(dist)})
}

// SSSPBellmanFord is data-driven Bellman-Ford over the operator engine:
// bulk-synchronous rounds with snapshot semantics (distances written in
// round i are read in round i+1), so the round count is bounded by the hop
// length of the longest shortest path — the term that blows up on
// high-diameter graphs. cfg selects the frontier representation and
// direction policy; the pull form gathers tentative distances over
// in-edges (requiring in-weights) when the frontier is edge-heavy.
func SSSPBellmanFord(r *core.Runtime, cfg engine.Config, src graph.Node) *Result {
	if !r.Weighted() {
		panic("analytics: SSSPBellmanFord requires a weighted runtime")
	}
	w := startWindow(r.M)
	e := engine.New(r, cfg)
	n := r.G.NumNodes()
	cur := make([]uint32, n)
	next := make([]atomic.Uint32, n)
	distArr := r.NodeArray("sssp.dist", 4)
	nextArr := r.NodeArray("sssp.dist.next", 4)
	e.VertexMap(engine.VertexMapArgs{
		Range: func(lo, hi graph.Node) {
			for v := lo; v < hi; v++ {
				cur[v] = Infinity
				next[v].Store(Infinity)
			}
		},
		SeqWrite: []*memsim.Array{distArr, nextArr},
	})

	cur[src] = 0
	next[src].Store(0)
	f := e.NewFrontier(src)
	rounds := 0
	for !f.Empty() {
		rounds++
		args := engine.EdgeMapArgs{
			Weighted: true,
			// relaxMin claims the deterministic SET of vertices whose
			// tentative distance drops this round (inputs come from the
			// frozen cur snapshot; the min is commutative; the sorted
			// merge erases claim attribution).
			PushRow: func(u graph.Node, row []graph.Node, wts []uint32, claims []graph.Node) []graph.Node {
				du := cur[u]
				if du == Infinity {
					return claims
				}
				wts = wts[:len(row)]
				for k, d := range row {
					nd := du + wts[k]
					if nd < du { // overflow guard
						continue
					}
					if relaxMin(next, d, nd) {
						claims = append(claims, d)
					}
				}
				return claims
			},
			PerEdge: []engine.Access{{Arr: nextArr, Write: true}},
		}
		if e.CanPull() && r.InWeighted() {
			cf := f
			// The pull folds v's candidate distances in a register and
			// lowers next[v] once: only v's owner lowers it in a pull
			// round, so the result, and whether it dropped, are what a
			// relaxMin per edge gives.
			args.PullRow = func(v graph.Node, row []graph.Node, wts []uint32) (bool, bool, int) {
				wts = wts[:len(row)]
				low := uint32(Infinity)
				for k, u := range row {
					du := cur[u]
					if !cf.Has(u) || du == Infinity {
						continue
					}
					if nd := du + wts[k]; nd >= du { // overflow guard
						low = min(low, nd)
					}
				}
				return relaxMin(next, v, low), false, len(row)
			}
			args.PullSeqRead = []*memsim.Array{distArr}
			// Pull gathers the neighbor's tentative distance per edge
			// and relaxes into next.
			args.PullPerEdge = []engine.Access{{Arr: distArr, Write: false}, {Arr: nextArr, Write: true}}
		}
		f = e.EdgeMap(f, args)
		// Publish the round.
		e.VertexMap(engine.VertexMapArgs{
			Range:    func(lo, hi graph.Node) { publishLabels(cur, next, lo, hi) },
			SeqRead:  []*memsim.Array{nextArr},
			SeqWrite: []*memsim.Array{distArr},
		})
	}
	return w.finish(&Result{
		App:       "sssp",
		Algorithm: engine.TraversalName(r, e.Config()),
		Rounds:    rounds,
		Dist:      append([]uint32(nil), cur...),
		Trace:     e.Trace(),
	})
}
