package shard

import (
	"slices"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// testEngine partitions g and builds a cluster-preset fleet over it with a
// test-sized thread count. Partition-level properties (coverage, balance,
// round-trip) are locked in internal/graph's property tests; these tests
// cover the BSP runtime on top.
func testEngine(t *testing.T, g *graph.Graph, shards int) *Engine {
	t.Helper()
	p, err := graph.NewPartition(g, shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig(shards, 32)
	cfg.Threads = 8
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// galoisRuntime runs the single-machine kernel for comparison.
func galoisRuntime(t *testing.T, g *graph.Graph, weighted, both bool) *core.Runtime {
	t.Helper()
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	opts := core.GaloisDefaults(8)
	opts.Weighted = weighted
	opts.BothDirections = both
	r, err := core.New(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestMinHosts(t *testing.T) {
	host := memsim.Scaled(memsim.StampedeHost(), 32)
	perHost := host.DRAMPerSocket * int64(host.Sockets)
	if got := MinHosts(perHost/2, host); got != 1 {
		t.Errorf("half-host graph needs %d hosts, want 1", got)
	}
	if got := MinHosts(perHost*4, host); got < 5 {
		t.Errorf("4x-host graph needs %d hosts, want >= 5 (replication headroom)", got)
	}
	if got := MinHosts(0, host); got != 1 {
		t.Errorf("empty graph needs %d hosts", got)
	}
}

func TestEngineRejectsEmptyPartition(t *testing.T) {
	if _, err := New(nil, ClusterConfig(1, 32)); err == nil {
		t.Error("nil partition accepted")
	}
}

func TestShardBFSMatchesSingleMachine(t *testing.T) {
	for _, shards := range []int{1, 3, 5} {
		g := gen.WebCrawl(3000, 6, 60, 9)
		src, _ := g.MaxOutDegreeNode()
		e := testEngine(t, g, shards)
		res := e.BFS(src)
		want := analytics.BFS(galoisRuntime(t, g, false, false), engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}, src)
		for v := range want.Dist {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("shards=%d: dist[%d] = %d, want %d", shards, v, res.Dist[v], want.Dist[v])
			}
		}
		if res.Seconds <= 0 {
			t.Errorf("shards=%d: no simulated time", shards)
		}
	}
}

func TestShardSSSPMatchesSingleMachine(t *testing.T) {
	g := gen.ErdosRenyi(800, 6000, 4)
	g.AddRandomWeights(32, 5)
	src, _ := g.MaxOutDegreeNode()
	e := testEngine(t, g, 4)
	res := e.SSSP(src)
	want := analytics.SSSPDeltaStep(galoisRuntime(t, g, true, false), src, 8)
	for v := range want.Dist {
		if res.Dist[v] != want.Dist[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want.Dist[v])
		}
	}
}

func TestShardCCFindsComponents(t *testing.T) {
	// Two disjoint cycles.
	var edges []graph.Edge
	for i := 0; i < 50; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node((i + 1) % 50)})
	}
	for i := 50; i < 100; i++ {
		next := i + 1
		if next == 100 {
			next = 50
		}
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node(next)})
	}
	g := graph.MustFromEdges(100, edges, false, false)
	g.BuildIn()
	e := testEngine(t, g, 3)
	res := e.CC()
	for v := 0; v < 50; v++ {
		if res.Labels[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, res.Labels[v])
		}
	}
	for v := 50; v < 100; v++ {
		if res.Labels[v] != 50 {
			t.Fatalf("label[%d] = %d, want 50", v, res.Labels[v])
		}
	}
}

func TestShardPRConverges(t *testing.T) {
	g := gen.ErdosRenyi(400, 3200, 13)
	g.BuildIn()
	e := testEngine(t, g, 4)
	res := e.PR(1e-8, 100)
	sum := 0.0
	for _, x := range res.Rank {
		sum += x
	}
	if sum < 0.5 || sum > 1.01 {
		t.Errorf("rank mass = %v", sum)
	}
	if res.Rounds < 2 || res.Rounds > 100 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

func TestShardKCore(t *testing.T) {
	g := gen.Star(30)
	g.BuildIn()
	e := testEngine(t, g, 2)
	res := e.KCore(3)
	// Star center has degree 58 undirected; spokes have 2 (<3): all
	// spokes peel, then the center loses all degree and peels too.
	for v, in := range res.InCore {
		if in {
			t.Errorf("node %d should not survive 3-core of a star", v)
		}
	}
}

func TestShardBCMatchesSingleMachine(t *testing.T) {
	g := gen.Grid(7, 8)
	src := graph.Node(0)
	e := testEngine(t, g, 3)
	res := e.BC(src)
	want := analytics.Brandes(galoisRuntime(t, g, false, false), engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}, src)
	for v := range want.Centrality {
		if diff := res.Centrality[v] - want.Centrality[v]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("bc[%d] = %g, want %g", v, res.Centrality[v], want.Centrality[v])
		}
	}
}

func TestCommScalesWithShards(t *testing.T) {
	g := gen.ErdosRenyi(2000, 16000, 21)
	one := testEngine(t, g, 1)
	one.BFS(0)
	many := testEngine(t, g, 8)
	many.BFS(0)
	if one.BytesSent() != 0 {
		t.Errorf("single shard sent %d bytes, want 0", one.BytesSent())
	}
	if many.BytesSent() == 0 {
		t.Error("8 shards sent no bytes")
	}
	if many.CommSeconds() <= one.CommSeconds() {
		t.Errorf("comm time should grow with shards: 1 shard %.6f vs 8 shards %.6f", one.CommSeconds(), many.CommSeconds())
	}
}

func TestCVCCommFactorBelowOEC(t *testing.T) {
	g := gen.ErdosRenyi(1000, 8000, 2)
	p, err := graph.NewPartition(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfgO := ClusterConfig(16, 32)
	cfgO.Threads = 4
	cfgO.Policy = OEC
	cfgC := cfgO
	cfgC.Policy = CVC
	eo, err := New(p, cfgO)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eo.Close)
	ec, err := New(p, cfgC)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ec.Close)
	if of, cf := eo.commFactor(), ec.commFactor(); cf >= of {
		t.Errorf("CVC comm factor %v should be below OEC %v at 16 shards", cf, of)
	}
}

func TestPolicyString(t *testing.T) {
	if OEC.String() != "oec" || CVC.String() != "cvc" {
		t.Error("policy strings")
	}
}

func TestPerShardSecondsAdvance(t *testing.T) {
	g := gen.ErdosRenyi(1500, 12000, 6)
	e := testEngine(t, g, 4)
	e.BFS(0)
	per := e.PerShardSeconds()
	if len(per) != 4 {
		t.Fatalf("per-shard times: %d entries, want 4", len(per))
	}
	for i, s := range per {
		if s <= 0 {
			t.Errorf("shard %d: no simulated time", i)
		}
		if s > e.WallSeconds()+1e-12 {
			t.Errorf("shard %d: %.9fs exceeds engine wall %.9fs", i, s, e.WallSeconds())
		}
	}
}

// TestShardWeightRowMatchesCursor checks the contract the scatter driver's
// weighted rows rest on: for every vertex of every shard, under both
// backends, ReadRow yields the Cursor's neighbors as the shard-local
// graph's own row, and its wts[k] is the weight at the Cursor's EI() at
// the k-th neighbor.
func TestShardWeightRowMatchesCursor(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.RMAT(10, 16, 0.57, 0.19, 0.19, 3, false),
		gen.WebCrawl(1500, 6, 40, 8),
	} {
		g.AddRandomWeights(64, 9)
		p, err := graph.NewPartition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
			cfg := ServingConfig(memsim.Scaled(memsim.OptaneMachine(), 32), 4, backend)
			e, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			edges := 0
			for s, w := range e.workers {
				for lv := graph.Node(0); lv < w.hi-w.lo; lv++ {
					out := &w.views[0]
					row, wts := out.ReadRow(new(core.RowBuf), lv, true)
					if out.Merged(lv) || len(row) > 0 && &row[0] != &out.Rows.Edges[out.Rows.Offsets[lv]] {
						t.Fatalf("%v shard %d vertex %d: a shard-local row is not the graph's own", backend, s, lv)
					}
					c := out.Adj.Cursor(lv)
					k := 0
					for d, ok := c.Next(); ok; d, ok = c.Next() {
						if k >= len(row) || row[k] != d {
							t.Fatalf("%v shard %d vertex %d: row differs from the cursor at %d", backend, s, lv, k)
						}
						if want := w.rt.G.OutWeights[c.EI()]; wts[k] != want {
							t.Fatalf("%v shard %d vertex %d: wts[%d] = %d, cursor weight %d", backend, s, lv, k, wts[k], want)
						}
						k++
					}
					if k != len(row) || len(wts) != len(row) {
						t.Fatalf("%v shard %d vertex %d: cursor %d, row %d, wts %d", backend, s, lv, k, len(row), len(wts))
					}
					edges += k
				}
			}
			e.Close()
			if int64(edges) != g.NumEdges() {
				t.Fatalf("%v: walked %d edges, graph has %d", backend, edges, g.NumEdges())
			}
		}
	}
}

// TestGatherProgramGetsAScratchRow: the gather driver hands its programs
// the graph's own rows, read-only; a program lists the neighbors that
// contributed in the driver's per-thread scratch, never in the row (bc
// backward once compacted them into the row it was given, when the driver
// copied every row). Sharded bc from several sources must leave the source
// graph's edges as they were.
func TestGatherProgramGetsAScratchRow(t *testing.T) {
	g := gen.RMAT(10, 16, 0.57, 0.19, 0.19, 3, false)
	g.BuildIn()
	out, in := slices.Clone(g.OutEdges), slices.Clone(g.InEdges)
	e := testEngine(t, g, 3)
	hub, _ := g.MaxOutDegreeNode()
	for _, src := range []graph.Node{hub, 0, 517} {
		e.BC(src)
		if !slices.Equal(g.OutEdges, out) || !slices.Equal(g.InEdges, in) {
			t.Fatalf("bc from %d rewrote the graph's edge storage", src)
		}
	}
}
