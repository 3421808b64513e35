package engine

import (
	"math/rand"
	"slices"
	"sync"
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

// TestMergeClaimsPropertyValued extends the permutation property to valued
// claims under both reductions: the merged (destination, operand) list is
// the per-destination reduction of the claim multiset in ascending ID order,
// invariant under how claims are permuted across thread buffers, under how
// they are split across shards (threads merged per shard first, the
// fragments merged again), and under the shard barrier's owner split:
// every shard's claims routed to contiguous destination ranges, each range
// merged over all shards' buffers for it — concurrently, sharing seen and
// acc, into output buffers reused from the previous iteration — and the
// range lists joined in range order.
func TestMergeClaimsPropertyValued(t *testing.T) {
	const n = 300
	reductions := map[string]func(a, b uint64) uint64{
		"min": func(a, b uint64) uint64 { return min(a, b) },
		"sum": func(a, b uint64) uint64 { return a + b },
	}
	type claim struct {
		d   graph.Node
		val uint64
	}
	seen := NewDense(n)
	acc := make([]uint64, n)
	var owned []ownerState
	// scatter deals claims (in a random order) across a random number of
	// buffers.
	scatter := func(rng *rand.Rand, claims []claim) ([][]graph.Node, [][]uint64) {
		bufs := 1 + rng.Intn(6)
		dsts := make([][]graph.Node, bufs)
		vals := make([][]uint64, bufs)
		for _, k := range rng.Perm(len(claims)) {
			b := rng.Intn(bufs)
			dsts[b] = append(dsts[b], claims[k].d)
			vals[b] = append(vals[b], claims[k].val)
		}
		return dsts, vals
	}
	for name, reduce := range reductions {
		rng := rand.New(rand.NewSource(91))
		for iter := 0; iter < 60; iter++ {
			var claims []claim
			want := map[graph.Node]uint64{}
			for _, d := range randomVertexSet(rng, n) {
				for c := 0; c < 1+rng.Intn(4); c++ {
					val := uint64(rng.Intn(1000))
					claims = append(claims, claim{d, val})
					if old, ok := want[d]; ok {
						want[d] = reduce(old, val)
					} else {
						want[d] = val
					}
				}
			}
			check := func(context string, ds []graph.Node, vs []uint64) {
				t.Helper()
				if len(ds) != len(want) || len(vs) != len(ds) {
					t.Fatalf("%s iter %d %s: %d destinations / %d values, want %d", name, iter, context, len(ds), len(vs), len(want))
				}
				for i, d := range ds {
					if i > 0 && ds[i-1] >= d {
						t.Fatalf("%s iter %d %s: not strictly ascending at %d", name, iter, context, i)
					}
					if vs[i] != want[d] {
						t.Fatalf("%s iter %d %s: value[%d] = %d, want %d", name, iter, context, d, vs[i], want[d])
					}
				}
				if seen.Count() != 0 {
					t.Fatalf("%s iter %d %s: dedup set left dirty", name, iter, context)
				}
			}

			// One level: any permutation across thread buffers.
			dsts, vals := scatter(rng, claims)
			ds, vs := MergeClaims(seen, dsts, vals, acc, reduce, nil, nil)
			check("threads", ds, vs)
			for i := range dsts {
				if len(dsts[i]) != 0 || len(vals[i]) != 0 {
					t.Fatalf("%s iter %d: buffer %d not drained", name, iter, i)
				}
			}

			// Two levels: claims split across shards, each shard's thread
			// buffers collapsed to a fragment, fragments merged again.
			shards := 1 + rng.Intn(5)
			perShard := make([][]claim, shards)
			for _, c := range claims {
				s := rng.Intn(shards)
				perShard[s] = append(perShard[s], c)
			}
			fragD := make([][]graph.Node, shards)
			fragV := make([][]uint64, shards)
			for s := range perShard {
				dsts, vals := scatter(rng, perShard[s])
				fragD[s], fragV[s] = MergeClaims(seen, dsts, vals, acc, reduce, nil, nil)
			}
			ds, vs = MergeClaims(seen, fragD, fragV, acc, reduce, nil, nil)
			check("shards", ds, vs)

			// Owner ranges: cut [0, n) at random points; each owner merges
			// every shard's claims on its range on its own goroutine.
			cuts := []graph.Node{0, n}
			for range rng.Intn(4) {
				cuts = append(cuts, graph.Node(rng.Intn(n)))
			}
			slices.Sort(cuts)
			owners := len(cuts) - 1
			for len(owned) < owners {
				owned = append(owned, ownerState{})
			}
			var wg sync.WaitGroup
			for o := range owners {
				wg.Add(1)
				go func(o int, st *ownerState) {
					defer wg.Done()
					lo, hi := cuts[o], cuts[o+1]
					dsts := make([][]graph.Node, shards)
					vals := make([][]uint64, shards)
					for s, cs := range perShard {
						for _, c := range cs {
							if c.d >= lo && c.d < hi {
								dsts[s], vals[s] = append(dsts[s], c.d), append(vals[s], c.val)
							}
						}
					}
					st.ds, st.vs = MergeClaims(seen, dsts, vals, acc, reduce, st.ds, st.vs)
				}(o, &owned[o])
			}
			wg.Wait()
			ds, vs = nil, nil
			for _, st := range owned[:owners] {
				ds, vs = append(ds, st.ds...), append(vs, st.vs...)
			}
			check("owners", ds, vs)
		}
	}
}

// ownerState is one owner range's merge output, reused across iterations.
type ownerState struct {
	ds []graph.Node
	vs []uint64
}
