package analytics

import (
	"math"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// testRuntime builds a small Optane-machine runtime over g.
func testRuntime(t *testing.T, g *graph.Graph, opts core.Options) *core.Runtime {
	t.Helper()
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	if opts.Threads == 0 {
		opts.Threads = 8
	}
	r, err := core.New(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// The §5 variant configurations frameworks.Plan.Variant names:
// sparse-wl, dense-wl and dir-opt.
var (
	sparseWL = engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}
	denseWL  = engine.Config{Rep: engine.RepDense, Dir: engine.DirPush}
	dirOpt   = engine.Config{Rep: engine.RepDense, Dir: engine.DirAuto}
)

func galoisOpts() core.Options {
	o := core.GaloisDefaults(8)
	return o
}

func bothDirOpts() core.Options {
	o := core.GaloisDefaults(8)
	o.BothDirections = true
	return o
}

func weightedOpts() core.Options {
	o := core.GaloisDefaults(8)
	o.Weighted = true
	return o
}

// sealed builds g's transpose where the fixture is born, the half of
// frameworks.Seal a runtime reading both directions needs (this package
// cannot import frameworks; tests add their own weights).
func sealed(g *graph.Graph) *graph.Graph {
	g.BuildIn()
	return g
}

// testGraphs returns a diverse set of sealed graphs with a source for
// traversal kernels.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":  sealed(gen.Path(64)),
		"cycle": sealed(gen.Cycle(50)),
		"star":  sealed(gen.Star(40)),
		"grid":  sealed(gen.Grid(8, 9)),
		"er":    sealed(gen.ErdosRenyi(300, 1800, 11)),
		"rmat":  sealed(gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3, false)),
		"web":   sealed(gen.WebCrawl(2000, 6, 40, 5)),
	}
}

func distsEqual(a, b []uint32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return -1, true
}

func TestBFSVariantsMatchReference(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			src, _ := g.MaxOutDegreeNode()
			want := refBFS(g, src)
			variants := map[string]func() *Result{
				"sparse": func() *Result { return BFS(testRuntime(t, g, galoisOpts()), sparseWL, src) },
				"dense":  func() *Result { return BFS(testRuntime(t, g, galoisOpts()), denseWL, src) },
				"diropt": func() *Result { return BFS(testRuntime(t, g, bothDirOpts()), dirOpt, src) },
			}
			for vn, run := range variants {
				res := run()
				if i, ok := distsEqual(want, res.Dist); !ok {
					t.Errorf("%s: dist[%d] = %d, want %d", vn, i, res.Dist[i], want[i])
				}
				if res.Seconds <= 0 {
					t.Errorf("%s: no simulated time", vn)
				}
				if res.App != "bfs" {
					t.Errorf("%s: app = %q", vn, res.App)
				}
			}
		})
	}
}

func TestSSSPVariantsMatchDijkstra(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			g.AddRandomWeights(64, 77)
			src, _ := g.MaxOutDegreeNode()
			want := refSSSP(g, src)
			for vn, run := range map[string]func() *Result{
				"delta": func() *Result { return SSSPDeltaStep(testRuntime(t, g, weightedOpts()), src, 16) },
				"bf":    func() *Result { return SSSPBellmanFord(testRuntime(t, g, weightedOpts()), denseWL, src) },
			} {
				res := run()
				if i, ok := distsEqual(want, res.Dist); !ok {
					t.Errorf("%s: dist[%d] = %d, want %d", vn, i, res.Dist[i], want[i])
				}
			}
		})
	}
}

func TestSSSPDeltaValues(t *testing.T) {
	g := gen.Grid(10, 10)
	g.AddRandomWeights(100, 5)
	src := graph.Node(0)
	want := refSSSP(g, src)
	for _, delta := range []uint32{1, 4, 64, 1024} {
		res := SSSPDeltaStep(testRuntime(t, g, weightedOpts()), src, delta)
		if i, ok := distsEqual(want, res.Dist); !ok {
			t.Errorf("delta=%d: dist[%d] = %d, want %d", delta, i, res.Dist[i], want[i])
		}
	}
}

// componentsAgree checks that two labelings induce the same partition.
func componentsAgree(a, b []uint32) bool {
	rep := map[uint32]uint32{}
	for i := range a {
		if r, ok := rep[a[i]]; ok {
			if r != b[i] {
				return false
			}
		} else {
			rep[a[i]] = b[i]
		}
	}
	inv := map[uint32]uint32{}
	for i := range b {
		if r, ok := inv[b[i]]; ok {
			if r != a[i] {
				return false
			}
		} else {
			inv[b[i]] = a[i]
		}
	}
	return true
}

func TestCCVariantsMatchReference(t *testing.T) {
	for name, g := range testGraphs() {
		t.Run(name, func(t *testing.T) {
			want := refComponents(g)
			for vn, run := range map[string]func() *Result{
				"dense": func() *Result { return CCLabelProp(testRuntime(t, g, bothDirOpts()), denseWL, false) },
				"sc":    func() *Result { return CCLabelProp(testRuntime(t, g, bothDirOpts()), sparseWL, true) },
				"pj":    func() *Result { return CCPointerJump(testRuntime(t, g, galoisOpts())) },
			} {
				res := run()
				if !componentsAgree(want, res.Labels) {
					t.Errorf("%s: component partition differs from union-find reference", vn)
				}
			}
		})
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	for _, name := range []string{"er", "star", "grid"} {
		g := testGraphs()[name]
		t.Run(name, func(t *testing.T) {
			want := refPageRank(g, 1e-9, 50)
			res := PageRank(testRuntime(t, g, bothDirOpts()), 1e-9, 50)
			for v := range want {
				if math.Abs(want[v]-res.Rank[v]) > 1e-9 {
					t.Fatalf("rank[%d] = %g, want %g", v, res.Rank[v], want[v])
				}
			}
			if res.Rounds < 2 {
				t.Errorf("suspiciously few rounds: %d", res.Rounds)
			}
		})
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := sealed(gen.ErdosRenyi(500, 4000, 9))
	res := PageRank(testRuntime(t, g, bothDirOpts()), 1e-10, 100)
	sum := 0.0
	for _, x := range res.Rank {
		sum += x
	}
	// With dangling nodes mass leaks; for this generator most nodes have
	// out-edges so the sum should be near 1.
	if sum < 0.5 || sum > 1.01 {
		t.Errorf("rank mass = %v, want in (0.5, 1.01]", sum)
	}
}

func TestBCMatchesReference(t *testing.T) {
	for _, name := range []string{"path", "star", "grid", "er"} {
		g := testGraphs()[name]
		t.Run(name, func(t *testing.T) {
			src, _ := g.MaxOutDegreeNode()
			want := refBC(g, src)
			for vn, cfg := range map[string]engine.Config{"sparse": sparseWL, "dense": denseWL} {
				res := Brandes(testRuntime(t, g, galoisOpts()), cfg, src)
				for v := range want {
					if math.Abs(want[v]-res.Centrality[v]) > 1e-6 {
						t.Fatalf("%s: bc[%d] = %g, want %g", vn, v, res.Centrality[v], want[v])
					}
				}
			}
		})
	}
}

func TestKCoreMatchesReference(t *testing.T) {
	cases := map[string]int64{"er": 10, "grid": 3, "star": 2, "web": 4}
	for name, k := range cases {
		g := testGraphs()[name]
		t.Run(name, func(t *testing.T) {
			want := refKCore(g, k)
			for vn, run := range map[string]func() *Result{
				"sparse": func() *Result { return KCore(testRuntime(t, g, bothDirOpts()), sparseWL, k) },
				"dense":  func() *Result { return KCore(testRuntime(t, g, bothDirOpts()), denseWL, k) },
			} {
				res := run()
				for v := range want {
					if want[v] != res.InCore[v] {
						t.Fatalf("%s: node %d in-core = %v, want %v", vn, v, res.InCore[v], want[v])
					}
				}
			}
		})
	}
}

func TestTCMatchesReference(t *testing.T) {
	// tc requires deduplicated symmetric input.
	tri := func(edges []graph.Edge, n int) *graph.Graph {
		var sym []graph.Edge
		for _, e := range edges {
			sym = append(sym, e, graph.Edge{Src: e.Dst, Dst: e.Src})
		}
		return graph.MustFromEdges(n, sym, false, true)
	}
	cases := map[string]struct {
		g    *graph.Graph
		want uint64
	}{
		"triangle":   {tri([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}, 3), 1},
		"k4":         {tri([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}}, 4), 4},
		"path":       {tri([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, 4), 0},
		"two-shared": {tri([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 1, Dst: 3}, {Src: 3, Dst: 2}}, 4), 2},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			res := TC(testRuntime(t, tc.g, galoisOpts()))
			if res.Triangles != tc.want {
				t.Errorf("triangles = %d, want %d", res.Triangles, tc.want)
			}
		})
	}
}

func TestTCMatchesBruteForceOnRandom(t *testing.T) {
	base := gen.ErdosRenyi(120, 900, 17)
	var sym []graph.Edge
	for v := 0; v < base.NumNodes(); v++ {
		for _, d := range base.OutNeighbors(graph.Node(v)) {
			sym = append(sym, graph.Edge{Src: graph.Node(v), Dst: d}, graph.Edge{Src: d, Dst: graph.Node(v)})
		}
	}
	g := graph.MustFromEdges(base.NumNodes(), sym, false, true)
	want := refTriangles(g)
	res := TC(testRuntime(t, g, galoisOpts()))
	if res.Triangles != want {
		t.Errorf("triangles = %d, want %d", res.Triangles, want)
	}
}

func TestSparseBeatsDenseOnHighDiameter(t *testing.T) {
	// The §5 headline: on a high-diameter graph, sparse-worklist bfs
	// beats the dense-worklist vertex program.
	g := gen.WebCrawl(60000, 8, 500, 23)
	src, _ := g.MaxOutDegreeNode()
	sparse := BFS(testRuntime(t, g, galoisOpts()), sparseWL, src)
	dense := BFS(testRuntime(t, g, galoisOpts()), denseWL, src)
	if sparse.Seconds >= dense.Seconds {
		t.Errorf("sparse (%.4fs) should beat dense (%.4fs) on high-diameter input", sparse.Seconds, dense.Seconds)
	}
	if dense.Rounds != sparse.Rounds {
		t.Errorf("round counts differ: dense %d sparse %d", dense.Rounds, sparse.Rounds)
	}
}

func TestLabelPropSCBeatsPlainOnHighDiameter(t *testing.T) {
	g := sealed(gen.WebCrawl(12000, 6, 300, 29))
	sc := CCLabelProp(testRuntime(t, g, bothDirOpts()), sparseWL, true)
	dense := CCLabelProp(testRuntime(t, g, bothDirOpts()), denseWL, false)
	if sc.Rounds >= dense.Rounds {
		t.Errorf("shortcutting rounds (%d) should be below plain label prop (%d)", sc.Rounds, dense.Rounds)
	}
	if sc.Seconds >= dense.Seconds {
		t.Errorf("labelprop-sc (%.4fs) should beat dense labelprop (%.4fs)", sc.Seconds, dense.Seconds)
	}
}

func TestResultCountersPopulated(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 3)
	src, _ := g.MaxOutDegreeNode()
	res := BFS(testRuntime(t, g, galoisOpts()), sparseWL, src)
	if res.Counters.Reads == 0 || res.Counters.Writes == 0 {
		t.Error("counters empty")
	}
	if res.Counters.UserNs <= 0 {
		t.Error("no user time attributed")
	}
}
