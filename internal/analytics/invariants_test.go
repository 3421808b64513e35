package analytics

import (
	"testing"
	"testing/quick"

	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Property-based invariant tests: for arbitrary random graphs, kernel
// outputs must satisfy the defining inequalities of their problems.

// quickRuntime builds a runtime without test-scoped cleanup (machines are
// garbage collected with the run).
func quickRuntime(g *graph.Graph, opts core.Options) *core.Runtime {
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	if opts.Threads == 0 {
		opts.Threads = 8
	}
	return core.MustNew(m, g, opts)
}

// randomGraph builds a small arbitrary sealed graph from fuzz inputs.
func randomGraph(seed uint32, weighted bool) *graph.Graph {
	n := int(seed%200) + 10
	m := int(seed%1500) + 20
	if max := n * (n - 1) / 2; m > max {
		m = max
	}
	g := gen.ErdosRenyi(n, m, uint64(seed)+1)
	if weighted {
		g.AddRandomWeights(50, uint64(seed)+7)
	}
	return sealed(g)
}

func TestBFSTriangleInequality(t *testing.T) {
	// For every edge (v,d): dist[d] <= dist[v] + 1, and every reached
	// vertex other than the source has a predecessor at dist-1.
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		src, _ := g.MaxOutDegreeNode()
		res := BFS(quickRuntime(g, galoisOpts()), sparseWL, src)
		d := res.Dist
		for v := 0; v < g.NumNodes(); v++ {
			if d[v] == Infinity {
				continue
			}
			for _, w := range g.OutNeighbors(graph.Node(v)) {
				if d[w] > d[v]+1 {
					return false
				}
			}
		}
		return d[src] == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSSSPRelaxationFixpoint(t *testing.T) {
	// For every edge (v,d,w): dist[d] <= dist[v] + w (no relaxable edge
	// remains), and dist[src] == 0.
	check := func(seed uint32) bool {
		g := randomGraph(seed, true)
		src, _ := g.MaxOutDegreeNode()
		res := SSSPDeltaStep(quickRuntime(g, weightedOpts()), src, 16)
		d := res.Dist
		for v := 0; v < g.NumNodes(); v++ {
			if d[v] == Infinity {
				continue
			}
			ws := g.OutWeightsOf(graph.Node(v))
			for i, w := range g.OutNeighbors(graph.Node(v)) {
				if d[w] > d[v]+ws[i] {
					return false
				}
			}
		}
		return d[src] == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCCLabelsAreFixpoints(t *testing.T) {
	// Endpoints of every edge share a label, and every label is the
	// minimum vertex ID of its component.
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		res := CCPointerJump(quickRuntime(g, galoisOpts()))
		l := res.Labels
		for v := 0; v < g.NumNodes(); v++ {
			if l[v] > uint32(v) {
				return false // label must not exceed own ID
			}
			for _, d := range g.OutNeighbors(graph.Node(v)) {
				if l[v] != l[d] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKCoreIsMaximal(t *testing.T) {
	// Every member of the k-core has >= k undirected neighbors inside
	// the core.
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		k := int64(seed%6) + 2
		res := KCore(quickRuntime(g, bothDirOpts()), sparseWL, k)
		in := res.InCore
		for v := 0; v < g.NumNodes(); v++ {
			if !in[v] {
				continue
			}
			deg := int64(0)
			for _, d := range g.OutNeighbors(graph.Node(v)) {
				if in[d] {
					deg++
				}
			}
			for _, d := range g.InNeighbors(graph.Node(v)) {
				if in[d] {
					deg++
				}
			}
			if deg < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPageRankMassAndPositivity(t *testing.T) {
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		res := PageRank(quickRuntime(g, bothDirOpts()), 1e-8, 60)
		sum := 0.0
		for _, r := range res.Rank {
			if r < 0 || r > 1 {
				return false
			}
			sum += r
		}
		return sum > 0.1 && sum <= 1.000001
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBCNonNegative(t *testing.T) {
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		src, _ := g.MaxOutDegreeNode()
		res := Brandes(quickRuntime(g, galoisOpts()), sparseWL, src)
		for _, c := range res.Centrality {
			if c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestVariantsAgreeAcrossSchedules(t *testing.T) {
	// The §5.1 taxonomy: the same problem solved under different
	// schedules must produce the same answer.
	check := func(seed uint32) bool {
		g := randomGraph(seed, false)
		src, _ := g.MaxOutDegreeNode()
		sparse := BFS(quickRuntime(g, galoisOpts()), sparseWL, src)
		dense := BFS(quickRuntime(g, galoisOpts()), denseWL, src)
		for v := range sparse.Dist {
			if sparse.Dist[v] != dense.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
