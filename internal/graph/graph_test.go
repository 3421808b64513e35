package graph

import (
	"bytes"
	"testing"
	"testing/quick"
)

func smallGraph() *Graph {
	// 0 -> 1,2 ; 1 -> 2 ; 2 -> 0 ; 3 isolated
	return MustFromEdges(4, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
	}, false, false)
}

func TestFromEdgesBasic(t *testing.T) {
	g := smallGraph()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("out(0) = %v", got)
	}
	if g.OutDegree(3) != 0 {
		t.Errorf("isolated node degree = %d", g.OutDegree(3))
	}
}

func TestFromEdgesDedupe(t *testing.T) {
	g := MustFromEdges(3, []Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 2},
	}, false, true)
	if g.NumEdges() != 2 {
		t.Errorf("deduped edges = %d, want 2 (dup + self-loop removed)", g.NumEdges())
	}
}

func TestFromEdgesSortsNeighbors(t *testing.T) {
	g := MustFromEdges(4, []Edge{
		{Src: 0, Dst: 3}, {Src: 0, Dst: 1}, {Src: 0, Dst: 2},
	}, false, false)
	nb := g.OutNeighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] > nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestBuildIn(t *testing.T) {
	g := smallGraph()
	g.BuildIn()
	if !g.HasIn() {
		t.Fatal("transpose missing")
	}
	if got := g.InNeighbors(2); len(got) != 2 {
		t.Errorf("in(2) = %v, want {0,1}", got)
	}
	if g.InDegree(3) != 0 {
		t.Errorf("in-degree(3) = %d", g.InDegree(3))
	}
	// Idempotent.
	before := &g.InEdges[0]
	g.BuildIn()
	if before != &g.InEdges[0] {
		t.Error("BuildIn rebuilt an existing transpose")
	}
	g.DropIn()
	if g.HasIn() {
		t.Error("DropIn did not drop")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	// Property: transposing twice recovers the original edge multiset.
	check := func(seed uint32) bool {
		n := int(seed%20) + 2
		var edges []Edge
		x := uint64(seed)*2654435761 + 1
		m := int(x % 60)
		for i := 0; i < m; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			edges = append(edges, Edge{Src: Node(x % uint64(n)), Dst: Node((x >> 32) % uint64(n))})
		}
		g := MustFromEdges(n, edges, false, false)
		g.BuildIn()
		// Count edges per (src,dst) in both directions.
		fwd := map[[2]Node]int{}
		for v := 0; v < n; v++ {
			for _, d := range g.OutNeighbors(Node(v)) {
				fwd[[2]Node{Node(v), d}]++
			}
		}
		for v := 0; v < n; v++ {
			for _, s := range g.InNeighbors(Node(v)) {
				fwd[[2]Node{s, Node(v)}]--
			}
		}
		for _, c := range fwd {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddRandomWeights(t *testing.T) {
	g := smallGraph()
	g.AddRandomWeights(100, 42)
	if !g.HasWeights() {
		t.Fatal("weights missing")
	}
	for i, w := range g.OutWeights {
		if w < 1 || w > 100 {
			t.Errorf("weight[%d] = %d out of [1,100]", i, w)
		}
	}
	// Deterministic per seed.
	h := smallGraph()
	h.AddRandomWeights(100, 42)
	for i := range g.OutWeights {
		if g.OutWeights[i] != h.OutWeights[i] {
			t.Fatal("weights not deterministic")
		}
	}
}

func TestWeightsConsistentWithTranspose(t *testing.T) {
	g := smallGraph()
	g.BuildIn()
	g.AddRandomWeights(50, 9)
	// AddRandomWeights rebuilds the transpose; each in-edge weight must
	// equal the corresponding out-edge weight.
	for v := 0; v < g.NumNodes(); v++ {
		ins := g.InNeighbors(Node(v))
		ws := g.InWeightsOf(Node(v))
		for i, s := range ins {
			found := false
			outs := g.OutNeighbors(s)
			wso := g.OutWeightsOf(s)
			for j, d := range outs {
				if d == Node(v) && wso[j] == ws[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("in-edge (%d->%d, w=%d) has no matching out-edge", s, v, ws[i])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallGraph()
	g.OutEdges[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	h := smallGraph()
	h.OutOffsets[1] = 100
	if err := h.Validate(); err == nil {
		t.Error("broken offsets accepted")
	}
}

func TestMaxDegreeHelpers(t *testing.T) {
	g := MustFromEdges(5, []Edge{
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2},
	}, false, false)
	node, deg := g.MaxOutDegreeNode()
	if node != 2 || deg != 3 {
		t.Errorf("max out = node %d deg %d", node, deg)
	}
	if g.MaxInDegree() != 2 {
		t.Errorf("max in = %d", g.MaxInDegree())
	}
}

func TestCSRBytes(t *testing.T) {
	g := smallGraph()
	base := g.CSRBytes() // 5*8 + 4*4 = 56
	if base != 56 {
		t.Errorf("CSR bytes = %d, want 56", base)
	}
	g.AddRandomWeights(10, 1)
	if g.CSRBytes() != 72 {
		t.Errorf("weighted CSR bytes = %d, want 72", g.CSRBytes())
	}
	g.BuildIn()
	if g.CSRBytes() != 72+56+16 {
		t.Errorf("bidirectional CSR bytes = %d", g.CSRBytes())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g := smallGraph()
	g.AddRandomWeights(30, 3)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadCSR(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("shape mismatch after round trip")
	}
	for v := 0; v < g.NumNodes(); v++ {
		a, b := g.OutNeighbors(Node(v)), h.OutNeighbors(Node(v))
		if len(a) != len(b) {
			t.Fatalf("node %d degree mismatch", v)
		}
		for i := range a {
			if a[i] != b[i] || g.OutWeightsOf(Node(v))[i] != h.OutWeightsOf(Node(v))[i] {
				t.Fatalf("node %d edge %d mismatch", v, i)
			}
		}
	}
}

func TestSerializePropertyRoundTrip(t *testing.T) {
	check := func(seed uint32, weighted bool) bool {
		n := int(seed%15) + 1
		var edges []Edge
		x := uint64(seed) + 1
		for i := 0; i < int(x%40); i++ {
			x = x*6364136223846793005 + 1
			edges = append(edges, Edge{Src: Node(x % uint64(n)), Dst: Node((x >> 20) % uint64(n)), Weight: uint32(x%100) + 1})
		}
		g := MustFromEdges(n, edges, weighted, false)
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g); err != nil {
			return false
		}
		h, err := ReadCSR(&buf)
		if err != nil {
			return false
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() || h.HasWeights() != g.HasWeights() {
			return false
		}
		for i := range g.OutEdges {
			if g.OutEdges[i] != h.OutEdges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadCSRRejectsGarbage(t *testing.T) {
	if _, err := ReadCSR(bytes.NewReader([]byte("not a graph file at all........"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCSR(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEstimateDiameterShapes(t *testing.T) {
	// Path graph of length 50: diameter ~49.
	var edges []Edge
	for i := 0; i < 49; i++ {
		edges = append(edges, Edge{Src: Node(i), Dst: Node(i + 1)})
	}
	p := MustFromEdges(50, edges, false, false)
	if d := p.EstimateDiameter(); d < 45 {
		t.Errorf("path diameter = %d, want ~49", d)
	}
	// Star: diameter 2.
	var star []Edge
	for i := 1; i < 30; i++ {
		star = append(star, Edge{Src: 0, Dst: Node(i)}, Edge{Src: Node(i), Dst: 0})
	}
	s := MustFromEdges(30, star, false, false)
	if d := s.EstimateDiameter(); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
}

// TestPropsLeavesTheGraphUnsealed: Props is a read. On an unsealed graph
// it must not build the transpose (later runs would pick other traversals),
// and its diameter must equal the one a sealed copy reports.
func TestPropsLeavesTheGraphUnsealed(t *testing.T) {
	// A one-way path with a few forward chords: only an undirected walk
	// reaches node 0 from the far end, so the estimate needs in-edges.
	var edges []Edge
	for i := 0; i < 63; i++ {
		edges = append(edges, Edge{Src: Node(i), Dst: Node(i + 1)})
		if i%7 == 0 && i+5 < 64 {
			edges = append(edges, Edge{Src: Node(i), Dst: Node(i + 5)})
		}
	}
	g := MustFromEdges(64, edges, false, false)
	sealed := MustFromEdges(64, edges, false, false)
	sealed.AddRandomWeights(64, 1)
	sealed.BuildIn()
	p := g.Props()
	if g.HasIn() || g.HasWeights() {
		t.Fatalf("Props sealed its receiver: HasIn=%v HasWeights=%v", g.HasIn(), g.HasWeights())
	}
	if want := sealed.Props().EstDiameter; p.EstDiameter != want || want == 0 {
		t.Errorf("unsealed diameter = %d, sealed copy's = %d", p.EstDiameter, want)
	}
}

func TestProps(t *testing.T) {
	g := smallGraph()
	p := g.Props()
	if p.Nodes != 4 || p.Edges != 4 {
		t.Errorf("props shape: %+v", p)
	}
	if p.AvgDegree != 1.0 {
		t.Errorf("avg degree = %v", p.AvgDegree)
	}
	if p.MaxOutDegree != 2 || p.MaxInDegree != 2 {
		t.Errorf("max degrees: %+v", p)
	}
}
