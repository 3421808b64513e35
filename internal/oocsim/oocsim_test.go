package oocsim

import (
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

func testConfig() Config {
	c := DefaultConfig(32)
	c.GridP = 16
	return c
}

func TestNewEngineValidation(t *testing.T) {
	g := gen.Path(10)
	bad := testConfig()
	bad.GridP = 0
	if _, err := NewEngine(g, bad); err == nil {
		t.Error("zero grid accepted")
	}
	wrongMode := testConfig()
	wrongMode.Machine = memsim.Scaled(memsim.OptaneMachine(), 32)
	if _, err := NewEngine(g, wrongMode); err == nil {
		t.Error("memory-mode machine accepted")
	}
}

func TestGridCoversAllEdges(t *testing.T) {
	g := gen.ErdosRenyi(300, 2400, 3)
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(e.pairs)) != g.NumEdges() {
		t.Fatalf("grid holds %d edges, want %d", len(e.pairs), g.NumEdges())
	}
	// Every pair must sit in the column of its destination stripe.
	for j := 0; j < e.p; j++ {
		lo, hi := e.colOff[j*e.p], e.colOff[(j+1)*e.p]
		for _, pr := range e.pairs[lo:hi] {
			if int(pr.dst)/e.stripe != j {
				t.Fatalf("edge (%d,%d) filed in column %d", pr.src, pr.dst, j)
			}
		}
	}
}

func TestGridPClampsToNodes(t *testing.T) {
	g := gen.Path(5)
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.GridP() > 5 {
		t.Errorf("grid dimension %d exceeds node count", e.GridP())
	}
}

func TestOOCBFSMatchesReference(t *testing.T) {
	g := gen.WebCrawl(1500, 5, 30, 3)
	src, _ := g.MaxOutDegreeNode()
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.BFS(src)
	// Reference BFS.
	want := make([]uint32, g.NumNodes())
	for i := range want {
		want[i] = analytics.Infinity
	}
	want[src] = 0
	queue := []graph.Node{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range g.OutNeighbors(v) {
			if want[d] == analytics.Infinity {
				want[d] = want[v] + 1
				queue = append(queue, d)
			}
		}
	}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
	if res.TimedOut {
		t.Error("unexpected timeout")
	}
	if res.Seconds <= 0 {
		t.Error("no simulated time")
	}
}

func TestOOCCCFindsWeakComponents(t *testing.T) {
	// A directed path is one weak component; label propagation must
	// flow against the edges via the reversed sweep.
	g := gen.Path(40)
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.CC()
	for v, l := range res.Labels {
		if l != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, l)
		}
	}
}

func TestOOCTimeout(t *testing.T) {
	g := gen.WebCrawl(4000, 5, 200, 7)
	cfg := testConfig()
	cfg.TimeoutSeconds = 1e-9 // expire immediately
	e, err := NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.MaxOutDegreeNode()
	res := e.BFS(src)
	if !res.TimedOut {
		t.Error("run should have timed out")
	}
}

func TestOOCPageRankFails(t *testing.T) {
	g := gen.Path(10)
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PageRank(); err == nil {
		t.Error("pagerank should report the assertion failure the paper observed")
	}
}

func TestOOCStreamsFullGridPerRound(t *testing.T) {
	g := gen.WebCrawl(3000, 6, 80, 11)
	src, _ := g.MaxOutDegreeNode()
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := e.BFS(src)
	wantBytes := uint64(res.Rounds) * uint64(e.EdgeBytesPerSweep())
	if res.Counters.BytesRead < wantBytes {
		t.Errorf("bytes read %d below rounds x grid = %d (must stream the whole grid every round)", res.Counters.BytesRead, wantBytes)
	}
}

func TestOOCSlowerThanMemoryMode(t *testing.T) {
	// The Table 5 headline: app-direct out-of-core is orders of
	// magnitude slower than memory-mode shared memory on a
	// high-diameter graph.
	g := gen.WebCrawl(8000, 8, 150, 5)
	src, _ := g.MaxOutDegreeNode()
	e, err := NewEngine(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ooc := e.BFS(src)

	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	r, err := core.New(m, g, core.GaloisDefaults(8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mm := analytics.BFS(r, engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}, src)

	// At full scale (Table 5) the gap is far larger; at this tiny test
	// scale we only require a clear multiple.
	if ooc.Seconds < 5*mm.Seconds {
		t.Errorf("GridGraph AD (%.4fs) should be >= 5x Galois MM (%.4fs)", ooc.Seconds, mm.Seconds)
	}
}
