package shard

import (
	"math"
	"slices"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
)

// This file declares the round-based benchmark set as programs over the two
// superstep drivers (scatter and gather, shard.go). These are the
// vertex-program formulations the paper's DM/DB/DS cluster configurations
// run — deliberately NOT the more efficient asynchronous/non-vertex
// algorithms, which BSP systems cannot express (§6.3).
//
//	kernel       driver   fold    directions  label touches  emit / row, per row of v (round-start state)       apply (owner of d)
//	bfs          scatter  min     out         1 write        claim dist[v]+1 for each d it improves             lower dist[d]; activate if lowered
//	sssp         scatter  min     out +wts    1 write        claim dist[v]+wts[k] for each row[k] it improves   lower dist[d]; activate if lowered
//	cc           scatter  min     out + in    1 write        claim label[v] for each d it improves              lower label[d]; activate if lowered
//	kcore        scatter  sum     out + in    1 write        claim 1 for every d of a peeled v                  deg[d] -= n; peel d once below k
//	bc forward   scatter  sum     out         2 writes       claim sigma[v] for each unvisited d                dist[d] = level; sigma[d] += n; activate
//	bc backward  gather   sum     out         3 reads        sum the dependencies of its successors, listed     delta[v] = sum (owner-only)
//	pr           gather   sum     in          1 read         sum contrib[u] over the row                        next/contrib/resid[v] (owner-only), then swap
//
// Each Engine method below is initial state, a program, the superstep loop
// and the Result. Shared label state is plain (non-atomic) memory that
// workers only read during a superstep (gather programs write owner-only
// slots) — apply is the only other writer, the superstep barrier orders the
// two, and each owner's apply writes only the slots of its own range.

// newDist returns an all-Infinity distance array with src at zero.
func newDist(n int, src graph.Node) []uint32 {
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = analytics.Infinity
	}
	dist[src] = 0
	return dist
}

// result stamps the engine's clocks onto a kernel's output.
func (e *Engine) result(res *analytics.Result) *analytics.Result {
	res.Algorithm, res.Rounds, res.Seconds = "shard-bsp", e.rounds, e.WallSeconds()
	return res
}

// relax declares the min-propagation program bfs, sssp and cc share: v
// offers row[k] the label label[v]+step (+wts[k] on a weighted row), claimed
// only where it beats the neighbor's round-start label, and apply keeps the
// minimum — so a vertex is activated exactly when its label drops.
func relax(label []uint32, s scan, step uint32) *scatterProgram {
	return &scatterProgram{
		scan: s,
		emit: func(v graph.Node, row []graph.Node, wts []uint32, dst []graph.Node, val []uint64) ([]graph.Node, []uint64) {
			lv := label[v]
			for k, d := range row {
				nl := lv + step
				if wts != nil {
					nl += wts[k]
				}
				// nl < lv means the step overflowed.
				if nl >= lv && nl < label[d] {
					dst, val = append(dst, d), append(val, uint64(nl))
				}
			}
			return dst, val
		},
		apply: func(d graph.Node, val uint64) bool {
			if uint32(val) >= label[d] {
				return false
			}
			label[d] = uint32(val)
			return true
		},
	}
}

// propagate runs p's supersteps until the frontier drains.
func (e *Engine) propagate(p *scatterProgram, frontier []graph.Node) {
	for len(frontier) > 0 {
		frontier = e.scatter(p, frontier)
	}
}

// BFS runs sharded breadth-first search from src: relaxation with unit
// steps, so superstep k settles exactly level k.
func (e *Engine) BFS(src graph.Node) *analytics.Result {
	e.resetClock()
	dist := newDist(e.part.NumNodes(), src)
	e.propagate(relax(dist, scan{walk: outEdges, touches: 1}, 1), []graph.Node{src})
	return e.result(&analytics.Result{App: "bfs", Dist: dist})
}

// SSSP runs sharded data-driven Bellman-Ford from src. The partitioned
// graph must be weighted.
func (e *Engine) SSSP(src graph.Node) *analytics.Result {
	if !e.part.Source().HasWeights() {
		panic("shard: sssp requires weights; seal them before NewPartition")
	}
	e.resetClock()
	dist := newDist(e.part.NumNodes(), src)
	e.propagate(relax(dist, scan{walk: outEdges, weighted: true, touches: 1}, 0), []graph.Node{src})
	return e.result(&analytics.Result{App: "sssp", Dist: dist})
}

// CC runs sharded label propagation. Labels must flow against edges too,
// so the partition's source needs its transpose.
func (e *Engine) CC() *analytics.Result {
	e.requireIn("cc")
	e.resetClock()
	labels := make([]uint32, e.part.NumNodes())
	frontier := make([]graph.Node, len(labels))
	for i := range labels {
		labels[i] = uint32(i)
		frontier[i] = graph.Node(i)
	}
	e.propagate(relax(labels, scan{walk: bothEdges, touches: 1}, 0), frontier)
	return e.result(&analytics.Result{App: "cc", Labels: labels})
}

// PR runs sharded topology-driven pull pagerank until the L1 residual drops
// below tol or maxRounds supersteps ran (both taken literally; see
// frameworks.Params for the defaults). Per round every shard recomputes its
// masters (gathering the frozen round-start contributions of their
// in-neighbors) and broadcasts their fresh values; this benefits from
// partitioned locality and aggregate memory bandwidth, which is why the
// paper finds the cluster beating the single Optane machine on pr.
func (e *Engine) PR(tol float64, maxRounds int) *analytics.Result {
	e.requireIn("pr")
	e.resetClock()
	g := e.part.Source()
	n := e.part.NumNodes()
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)     // round-start contributions (frozen)
	contribNext := make([]float64, n) // published for the next round
	// Per-vertex residual shards (owner-only writes), summed sequentially
	// in vertex order after each round: the total is a pure function of
	// the round's values, independent of shard count and thread count —
	// so the stopping round is too.
	resid := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
		if d := g.OutDegree(graph.Node(i)); d > 0 {
			contrib[i] = rank[i] / float64(d)
		}
	}
	base := (1 - 0.85) / float64(n)
	prog := &gatherProgram{
		scan:        scan{walk: inEdges, touches: 1},
		everyMaster: true,
		row: func(v graph.Node, row []graph.Node, sum float64, from []graph.Node) (float64, []graph.Node) {
			c := contrib
			for _, u := range row {
				sum += c[u]
			}
			return sum, from
		},
		done: func(v graph.Node, sum float64) {
			nv := base + 0.85*sum
			resid[v] = math.Abs(nv - rank[v])
			next[v] = nv
			contribNext[v] = 0
			if d := g.OutDegree(v); d > 0 {
				contribNext[v] = nv / float64(d)
			}
		},
	}
	all := engine.FullDense(n)
	for e.rounds < maxRounds {
		e.gather(prog, all)
		rank, next = next, rank
		contrib, contribNext = contribNext, contrib
		residual := 0.0
		for _, x := range resid {
			residual += x
		}
		if residual < tol {
			break
		}
	}
	return e.result(&analytics.Result{App: "pr", Rank: rank})
}

// KCore runs sharded round-based peeling with threshold k. Whether a vertex
// peels is decided at the barrier, against degrees every decrement of the
// round has already landed on, so it never depends on sibling decrements
// landing early; the final, empty superstep is the convergence check.
func (e *Engine) KCore(k int64) *analytics.Result {
	e.requireIn("kcore")
	e.resetClock()
	g := e.part.Source()
	n := e.part.NumNodes()
	deg := make([]int64, n)
	removed := make([]bool, n)
	var frontier []graph.Node
	for v := range deg {
		deg[v] = g.OutDegree(graph.Node(v)) + g.InDegree(graph.Node(v))
		if deg[v] < k {
			removed[v] = true
			frontier = append(frontier, graph.Node(v))
		}
	}
	prog := &scatterProgram{
		scan:         scan{walk: bothEdges, touches: 1},
		sum:          true,
		streamLabels: true,
		emit: func(_ graph.Node, row []graph.Node, _ []uint32, dst []graph.Node, val []uint64) ([]graph.Node, []uint64) {
			for _, d := range row {
				dst, val = append(dst, d), append(val, 1)
			}
			return dst, val
		},
		apply: func(d graph.Node, val uint64) bool {
			deg[d] -= int64(val)
			if removed[d] || deg[d] >= k {
				return false
			}
			removed[d] = true
			return true
		},
	}
	for {
		peeled := len(frontier)
		frontier = e.scatter(prog, frontier)
		if peeled == 0 {
			break
		}
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = deg[v] >= k
	}
	return e.result(&analytics.Result{App: "kcore", InCore: in})
}

// BC runs sharded round-synchronous Brandes betweenness centrality from
// src: a forward BFS phase accumulating shortest-path counts (every path
// count flowing into a newly reached vertex ships as one summed claim) and
// a backward dependency phase over the recorded levels.
func (e *Engine) BC(src graph.Node) *analytics.Result {
	e.resetClock()
	n := e.part.NumNodes()
	dist := newDist(n, src)
	sigma := make([]uint64, n)
	delta := make([]float64, n)
	sigma[src] = 1

	level := uint32(0)
	forward := &scatterProgram{
		scan: scan{walk: outEdges, touches: 2},
		sum:  true,
		// d joins the next level iff it was unvisited at round start.
		emit: func(v graph.Node, row []graph.Node, _ []uint32, dst []graph.Node, val []uint64) ([]graph.Node, []uint64) {
			sv := sigma[v]
			for _, d := range row {
				if dist[d] == analytics.Infinity {
					dst, val = append(dst, d), append(val, sv)
				}
			}
			return dst, val
		},
		apply: func(d graph.Node, val uint64) bool {
			dist[d] = level
			sigma[d] += val
			return true
		},
	}
	var levels [][]graph.Node
	for frontier := []graph.Node{src}; len(frontier) > 0; {
		levels = append(levels, slices.Clone(frontier)) // scatter recycles frontier
		level++
		frontier = e.scatter(forward, frontier)
	}

	backward := &gatherProgram{
		scan: scan{walk: outEdges, touches: 3},
		// Only successors on a shortest path contribute; they are listed
		// in from for the driver's remote count.
		row: func(v graph.Node, row []graph.Node, sum float64, from []graph.Node) (float64, []graph.Node) {
			next, sv := dist[v]+1, float64(sigma[v])
			for _, d := range row {
				sd := float64(sigma[d])
				if dist[d] != next || sd == 0 {
					continue
				}
				sum += sv / sd * (1 + delta[d])
				from = append(from, d)
			}
			return sum, from
		},
		done: func(v graph.Node, sum float64) { delta[v] = sum },
	}
	for _, lvl := range slices.Backward(levels) {
		e.gather(backward, e.activate(lvl))
		e.deactivate(lvl)
	}
	return e.result(&analytics.Result{App: "bc", Dist: dist, Centrality: delta})
}

// requireIn panics when a kernel needing the transpose runs over a
// partition extracted before BuildIn — the local graphs cannot build
// their own (global IDs over local offsets), so sealing order is a hard
// precondition, not a lazy fix-up.
func (e *Engine) requireIn(app string) {
	if !e.part.Source().HasIn() {
		panic("shard: " + app + " requires the transpose; BuildIn before NewPartition")
	}
}
