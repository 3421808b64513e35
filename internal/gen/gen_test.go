package gen

import (
	"math"
	"testing"
	"time"

	"pmemgraph/internal/graph"
)

func TestUtilityGraphShapes(t *testing.T) {
	p := Path(10)
	if p.NumNodes() != 10 || p.NumEdges() != 9 {
		t.Errorf("path: V=%d E=%d", p.NumNodes(), p.NumEdges())
	}
	c := Cycle(8)
	if c.NumEdges() != 8 {
		t.Errorf("cycle edges = %d", c.NumEdges())
	}
	s := Star(5)
	if s.OutDegree(0) != 4 {
		t.Errorf("star center degree = %d", s.OutDegree(0))
	}
	k := Complete(6)
	if k.NumEdges() != 30 {
		t.Errorf("K6 edges = %d", k.NumEdges())
	}
	gr := Grid(4, 5)
	if gr.NumNodes() != 20 {
		t.Errorf("grid nodes = %d", gr.NumNodes())
	}
	// Interior grid node has degree 4 in each direction.
	if gr.OutDegree(graph.Node(1*5+2)) != 4 {
		t.Errorf("grid interior degree = %d", gr.OutDegree(7))
	}
	for _, g := range []*graph.Graph{p, c, s, k, gr} {
		if err := g.Validate(); err != nil {
			t.Errorf("validate: %v", err)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 7)
	if g.NumEdges() != 500 {
		t.Errorf("ER edges = %d, want 500", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Determinism.
	h := ErdosRenyi(100, 500, 7)
	for v := 0; v < 100; v++ {
		a, b := g.OutNeighbors(graph.Node(v)), h.OutNeighbors(graph.Node(v))
		if len(a) != len(b) {
			t.Fatalf("node %d degree differs between identical seeds", v)
		}
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 1, false)
	if g.NumNodes() != 4096 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4096*8 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Power-law skew: max out-degree far above average.
	_, maxDeg := g.MaxOutDegreeNode()
	if maxDeg < 8*8 {
		t.Errorf("max degree %d not skewed (avg 8)", maxDeg)
	}
}

func TestKronSymmetric(t *testing.T) {
	g := Kron(10, 8, 5)
	g.BuildIn()
	// Symmetrized: in-degree distribution matches out-degree distribution.
	for v := 0; v < g.NumNodes(); v += 97 {
		if g.OutDegree(graph.Node(v)) != g.InDegree(graph.Node(v)) {
			t.Fatalf("node %d: out %d != in %d (should be symmetric)", v, g.OutDegree(graph.Node(v)), g.InDegree(graph.Node(v)))
		}
	}
}

func TestDiameterClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("diameter estimation on generated graphs is slow")
	}
	// kron/rmat: low diameter. web crawls: high diameter.
	kron := Kron(14, 16, 30)
	if d := kron.EstimateDiameter(); d > 20 {
		t.Errorf("kron diameter = %d, want low (<20)", d)
	}
	web := WebCrawl(40_000, 20, 300, 12)
	if d := web.EstimateDiameter(); d < 80 {
		t.Errorf("web crawl diameter = %d, want high (>=80)", d)
	}
	prot := Protein(8_000, 40, 60, 100)
	if d := prot.EstimateDiameter(); d < 10 || d > 200 {
		t.Errorf("protein diameter = %d, want moderate (10-200)", d)
	}
}

func TestWebCrawlHubSkew(t *testing.T) {
	g := WebCrawl(20_000, 20, 100, 12)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	maxIn := g.MaxInDegree()
	avg := float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(maxIn) < 40*avg {
		t.Errorf("max in-degree %d not hub-skewed (avg %.1f)", maxIn, avg)
	}
}

func TestPaperInputsTable(t *testing.T) {
	rows := PaperInputs()
	if len(rows) != 6 {
		t.Fatalf("inputs = %d, want 6", len(rows))
	}
	if rows[0].Name != "kron30" || rows[5].Name != "wdc12" {
		t.Error("Table 3 order broken")
	}
	hi := 0
	for _, r := range rows {
		if r.HighDiameter {
			hi++
		}
	}
	if hi != 3 {
		t.Errorf("high-diameter inputs = %d, want 3 (web crawls)", hi)
	}
	if _, err := PaperInput("nope"); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestScaledInputsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("generating all inputs is slow")
	}
	densest, densestAvg := "", 0.0
	for _, name := range InputNames() {
		g, _, err := Input(name, ScaleSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		avg := float64(g.NumEdges()) / float64(g.NumNodes())
		// Generation targets (shapes()), not the paper's absolute
		// densities; iso_m100's density is deliberately reduced
		// (DESIGN.md scaling rule).
		if target := float64(shapes()[name].avgDeg); avg < target/4 {
			t.Errorf("%s: avg degree %.1f too far below generation target %.0f", name, avg, target)
		}
		if avg > densestAvg {
			densest, densestAvg = name, avg
		}
	}
	if densest != "iso_m100" {
		t.Errorf("densest input = %s, want iso_m100 (protein network)", densest)
	}
}

// TestWebCrawlTinyReturns: with n <= 2 the core is one vertex, so every
// padding draw would be a self-loop; the generator must still return.
func TestWebCrawlTinyReturns(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		done := make(chan *graph.Graph, 1)
		go func() { done <- WebCrawl(n, 4, 10, 1) }()
		select {
		case g := <-done:
			if g.NumNodes() != n {
				t.Errorf("WebCrawl(%d): %d nodes", n, g.NumNodes())
			}
			if err := g.Validate(); err != nil {
				t.Errorf("WebCrawl(%d): %v", n, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("WebCrawl(%d, 4, 10, 1) did not return within 2s", n)
		}
	}
}

// floatQuadrant is RMAT's quadrant pick as float compares of the draw
// against the cumulative probabilities, the definition quadrants.pick must
// match on every draw.
func floatQuadrant(x uint64, a, b, c float64) uint64 {
	switch p := float64(x>>11) / (1 << 53); {
	case p < a:
		return 0
	case p < a+b:
		return 1
	case p < a+b+c:
		return 2
	default:
		return 3
	}
}

// TestQuadrantPickMatchesFloatCompare checks the integer pick against the
// float compares on the draws either side of every threshold, where an
// off-by-one would show, and on random draws, for probability sets that
// clamp at 0 and 2⁵³, are not monotone, or hold a NaN.
func TestQuadrantPickMatchesFloatCompare(t *testing.T) {
	nan := math.NaN()
	sets := [][3]float64{
		{0.57, 0.19, 0.19}, {0.25, 0.25, 0.25}, {0.45, 0.15, 0.15}, {1, 0, 0}, {0, 0.5, 0.5},
		{0, 0, 0}, {0.3, -0.1, 0.5}, {0.6, 0.6, -0.5}, {1.5, 0, 0}, {-0.2, 0.1, 0.1},
		{1e-300, 1e-300, 1e-300}, {nan, 0.2, 0.2}, {0.2, nan, 0.2}, {0.2, 0.2, nan},
	}
	r := newRNG(48)
	for _, s := range sets {
		a, b, c := s[0], s[1], s[2]
		q := newQuadrants(a, b, c)
		var ks []uint64
		for _, p := range []float64{a, a + b, a + b + c} {
			th := threshold(p)
			for _, k := range []uint64{th - 2, th - 1, th, th + 1} {
				if k < 1<<53 {
					ks = append(ks, k)
				}
			}
		}
		ks = append(ks, 0, 1<<53-1)
		for range 10_000 {
			ks = append(ks, r.next()>>11)
		}
		for _, k := range ks {
			for _, low := range []uint64{0, 1<<11 - 1} {
				x := k<<11 | low
				if got, want := q.pick(x), floatQuadrant(x, a, b, c); got != want {
					t.Fatalf("(%v, %v, %v): draw %#x picks quadrant %d, float compare %d", a, b, c, x, got, want)
				}
			}
		}
	}
}

// BenchmarkRMAT times one RMAT16 graph end to end: the parallel edge fill
// and FromEdges.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	}
}

func TestSortNodesByDegreeDesc(t *testing.T) {
	g := Star(10)
	order := SortNodesByDegreeDesc(g)
	if order[0] != 0 {
		t.Errorf("highest-degree node = %d, want 0 (star center)", order[0])
	}
	for i := 1; i < len(order); i++ {
		if g.OutDegree(order[i-1]) < g.OutDegree(order[i]) {
			t.Fatal("order not descending")
		}
	}
}
