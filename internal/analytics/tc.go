package analytics

import (
	"cmp"
	"slices"
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// TC counts triangles with the node-iterator algorithm over a degree-
// ordered DAG: edges are oriented from lower-rank (higher-degree) to
// higher-rank endpoints, and each directed wedge is closed by an ordered
// adjacency intersection. The graph is treated as undirected and must be
// free of duplicate edges for exact counts (generators dedupe when asked).
//
// The DAG construction is charged to the simulator as part of the run, as
// the frameworks in the paper preprocess inside the timed region for tc.
func TC(r *core.Runtime) *Result {
	w := startWindow(r.M)
	n := r.G.NumNodes()

	// Rank nodes by descending degree (ties by ID).
	rank := make([]uint32, n)
	order := make([]graph.Node, n)
	for i := range order {
		order[i] = graph.Node(i)
	}
	slices.SortFunc(order, func(a, b graph.Node) int {
		return cmp.Or(cmp.Compare(r.OutDegree(b), r.OutDegree(a)), cmp.Compare(a, b))
	})
	for pos, v := range order {
		rank[v] = uint32(pos)
	}
	rankArr := r.NodeArray("tc.rank", 4)
	r.ParallelItems(int64(n), func(t *memsim.Thread, lo, hi int64) {
		rankArr.WriteRange(t, lo, hi)
		t.Op(int(hi - lo))
	})

	// Build the oriented adjacency: for each v keep neighbors with
	// higher rank, sorted by rank.
	outView := r.OutView()
	dagOff := make([]int64, n+1)
	var buf core.RowBuf
	for v := 0; v < n; v++ {
		cnt := int64(0)
		row, _ := outView.ReadRow(&buf, graph.Node(v), false)
		for _, d := range row {
			if rank[d] > rank[v] {
				cnt++
			}
		}
		dagOff[v+1] = dagOff[v] + cnt
	}
	dagEdges := make([]graph.Node, dagOff[n])
	dagOffArr := r.ScratchArray("tc.dag.offsets", int64(n+1), 8)
	dagEdgesArr := r.ScratchArray("tc.dag.edges", max(dagOff[n], 1), 4)
	r.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		r.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
		dagOffArr.WriteRange(t, int64(lo), int64(hi))
		for v := lo; v < hi; v++ {
			outView.ChargeScan(t, v, false)
			rankArr.RandomN(t, r.OutDegree(v), false)
			t.Op(int(r.OutDegree(v)))
			end := dagOff[v]
			row, _ := outView.ReadRow(r.RowBuf(t), v, false)
			for _, d := range row {
				if rank[d] > rank[v] {
					dagEdges[end] = d
					end++
				}
			}
			lo2, hi2 := dagOff[v], end
			seg := dagEdges[lo2:hi2]
			slices.SortFunc(seg, func(a, b graph.Node) int { return cmp.Compare(rank[a], rank[b]) })
			dagEdgesArr.WriteRange(t, lo2, hi2)
		}
	})

	// Count: for each DAG edge (u, v), intersect dag(u) and dag(v).
	var total atomic.Uint64
	r.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		dagOffArr.ReadRange(t, int64(lo), int64(hi)+1)
		local := uint64(0)
		for u := lo; u < hi; u++ {
			au := dagEdges[dagOff[u]:dagOff[u+1]]
			if len(au) == 0 {
				continue
			}
			dagEdgesArr.ReadRange(t, dagOff[u], dagOff[u+1])
			for _, v := range au {
				av := dagEdges[dagOff[v]:dagOff[v+1]]
				steps := intersectCount(rank, au, av, &local)
				dagEdgesArr.ReadRange(t, dagOff[v], dagOff[v]+steps)
				t.Op(int(steps))
			}
		}
		total.Add(local)
	})

	return w.finish(&Result{App: "tc", Algorithm: "node-iterator", Rounds: 1, Triangles: total.Load()})
}

// intersectCount merges two rank-sorted adjacency lists, adding the number
// of common elements to total and returning the number of merge steps (the
// simulated read span on the second list).
func intersectCount(rank []uint32, a, b []graph.Node, total *uint64) int64 {
	i, j := 0, 0
	steps := int64(0)
	for i < len(a) && j < len(b) {
		steps++
		ra, rb := rank[a[i]], rank[b[j]]
		switch {
		case ra == rb:
			*total++
			i++
			j++
		case ra < rb:
			i++
		default:
			j++
		}
	}
	return steps
}
