package engine

import (
	"math/rand"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// Property-based coverage for Frontier: random vertex sets driven through
// sparse<->dense conversions and the engine's set operations must preserve
// membership exactly, keep Count/OutEdges consistent with the set, and
// honor the |frontier|+outEdges > |E|/DenseFrac conversion threshold. The
// generators are seeded, so every failure reproduces.

// randomVertexSet draws a unique vertex subset in random order.
func randomVertexSet(rng *rand.Rand, n int) []graph.Node {
	size := rng.Intn(n)
	perm := rng.Perm(n)
	vs := make([]graph.Node, size)
	for i := 0; i < size; i++ {
		vs[i] = graph.Node(perm[i])
	}
	return vs
}

// setOf indexes a vertex list for membership checks.
func setOf(vs []graph.Node) map[graph.Node]bool {
	m := make(map[graph.Node]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

// checkFrontierMatchesSet asserts f represents exactly want over n
// vertices: membership (Has), materialization (Vertices), cardinality and
// the out-edge aggregate used by the conversion and direction thresholds.
func checkFrontierMatchesSet(t *testing.T, g *graph.Graph, f *Frontier, want map[graph.Node]bool, context string) {
	t.Helper()
	if f.Count() != int64(len(want)) {
		t.Fatalf("%s: Count = %d, want %d", context, f.Count(), len(want))
	}
	var wantEdges int64
	for v := range want {
		wantEdges += g.OutDegree(v)
	}
	if f.OutEdges() != wantEdges {
		t.Fatalf("%s: OutEdges = %d, want %d", context, f.OutEdges(), wantEdges)
	}
	got := f.Vertices()
	if len(got) != len(want) {
		t.Fatalf("%s: Vertices len = %d, want %d", context, len(got), len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("%s: Vertices contains non-member %d", context, v)
		}
	}
	// Probe Has on members and a sample of non-members.
	for v := range want {
		if !f.Has(v) {
			t.Fatalf("%s: member %d not found by Has", context, v)
		}
	}
	for v := 0; v < g.NumNodes(); v += 7 {
		if !want[graph.Node(v)] && f.Has(graph.Node(v)) {
			t.Fatalf("%s: non-member %d reported by Has", context, v)
		}
	}
}

func TestFrontierPropertyRandomSetsAndConversions(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(257, 2100, 3), // odd size exercises the last bit-vector word
		gen.WebCrawl(400, 6, 30, 5),  // degree-skewed
		gen.Star(129),                // one heavy hub
		gen.Path(64),                 // uniform degree 1
	}
	for gi, g := range graphs {
		rng := rand.New(rand.NewSource(int64(1000 + gi)))
		e := testEngine(t, g, Config{Rep: RepAuto}, false)
		threshold := g.NumEdges() / e.Config().DenseFrac
		for iter := 0; iter < 60; iter++ {
			vs := randomVertexSet(rng, g.NumNodes())
			want := setOf(vs)
			f := e.NewFrontier(vs...)

			// Representation must follow the documented threshold.
			wantDense := f.Count()+f.OutEdges() > threshold
			if f.IsDense() != wantDense {
				t.Fatalf("graph %d iter %d: |f|=%d outEdges=%d threshold=%d: dense=%v, want %v",
					gi, iter, f.Count(), f.OutEdges(), threshold, f.IsDense(), wantDense)
			}
			checkFrontierMatchesSet(t, g, f, want, "fresh frontier")

			// Sparse -> dense -> sparse round trip preserves the set and
			// the aggregates the thresholds consume.
			e.toDense(f)
			if !f.IsDense() {
				t.Fatal("toDense left the frontier sparse")
			}
			checkFrontierMatchesSet(t, g, f, want, "after toDense")
			var rs RoundStat
			e.convert(f, &rs) // dense -> sparse (explicit flip)
			if f.IsDense() {
				t.Fatal("convert kept the frontier dense")
			}
			checkFrontierMatchesSet(t, g, f, want, "after dense->sparse convert")
		}
	}
}

// TestFrontierPropertyThresholdBoundary pins the conversion threshold
// exactly: a frontier whose |f|+outEdges equals |E|/DenseFrac stays
// sparse (the switch is a strict >); one vertex past it converts. Star
// graphs make the arithmetic exact — every leaf has out-degree 1 (its
// edge back to the hub), so k leaves weigh exactly 2k.
func TestFrontierPropertyThresholdBoundary(t *testing.T) {
	g := gen.Star(1001) // 2000 edges: hub<->leaf both ways
	e := testEngine(t, g, Config{Rep: RepAuto}, false)
	threshold := g.NumEdges() / e.Config().DenseFrac // 2000/20 = 100
	if threshold != 100 {
		t.Fatalf("star threshold = %d, want 100", threshold)
	}
	leaves := func(k int) []graph.Node {
		vs := make([]graph.Node, k)
		for i := range vs {
			vs[i] = graph.Node(i + 1)
		}
		return vs
	}
	for _, leaf := range leaves(50) {
		if g.OutDegree(leaf) != 1 {
			t.Fatalf("leaf %d has out-degree %d, want 1", leaf, g.OutDegree(leaf))
		}
	}
	if f := e.NewFrontier(leaves(50)...); f.IsDense() {
		t.Errorf("at the threshold (2*50 == %d): converted to dense, want sparse (strict >)", threshold)
	}
	if f := e.NewFrontier(leaves(51)...); !f.IsDense() {
		t.Errorf("past the threshold (2*51 > %d): stayed sparse", threshold)
	}
	// The hub alone carries all 1000 out-edges: heavily past the threshold.
	if f := e.NewFrontier(0); !f.IsDense() {
		t.Error("hub frontier (outEdges=1000) stayed sparse")
	}
	// Forced representations ignore the threshold entirely.
	sparse := testEngine(t, g, Config{Rep: RepSparse}, false)
	if f := sparse.NewFrontier(0); f.IsDense() {
		t.Error("RepSparse converted the hub frontier")
	}
	dense := testEngine(t, g, Config{Rep: RepDense}, false)
	if f := dense.NewFrontier(leaves(1)...); !f.IsDense() {
		t.Error("RepDense kept a one-leaf frontier sparse")
	}
}

// TestFrontierPropertyMergeClaims feeds randomized multisets of activation
// claims through the push-round merge and asserts the outcome is the
// deduplicated set in ascending ID order regardless of how claims are
// distributed across thread buffers or how often they repeat — the
// property that makes claim attribution (a race outcome) unobservable.
func TestFrontierPropertyMergeClaims(t *testing.T) {
	g := gen.ErdosRenyi(300, 2400, 9)
	e := testEngine(t, g, Config{Rep: RepSparse}, false)
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 80; iter++ {
		vs := randomVertexSet(rng, g.NumNodes())
		want := setOf(vs)

		// Scatter each claim (possibly several times) into random buffers.
		for _, v := range vs {
			for c := 0; c < 1+rng.Intn(3); c++ {
				tid := rng.Intn(len(e.claims))
				e.claims[tid] = append(e.claims[tid], v)
			}
		}
		f := e.mergeClaims()
		checkFrontierMatchesSet(t, g, f, want, "merged claims")
		for i := 1; i < len(f.sparse); i++ {
			if f.sparse[i-1] >= f.sparse[i] {
				t.Fatalf("iter %d: merged frontier not strictly ascending at %d", iter, i)
			}
		}
		for i := range e.claims {
			if len(e.claims[i]) != 0 {
				t.Fatalf("iter %d: claim buffer %d not drained", iter, i)
			}
		}
	}
}
