package engine

import (
	"slices"
	"testing"
	"testing/quick"

	"pmemgraph/internal/graph"
)

func TestDenseSetTestClear(t *testing.T) {
	d := NewDense(200)
	if d.Len() != 200 {
		t.Fatalf("len = %d", d.Len())
	}
	if !d.Set(5) {
		t.Fatal("first set returned false")
	}
	if d.Set(5) {
		t.Fatal("second set returned true")
	}
	if !d.Test(5) || d.Test(6) {
		t.Fatal("test wrong")
	}
	if d.Count() != 1 {
		t.Fatalf("count = %d", d.Count())
	}
	d.Clear()
	if d.Count() != 0 || d.Test(5) {
		t.Fatal("clear failed")
	}
}

func TestDenseForEachInRange(t *testing.T) {
	d := NewDense(300)
	want := []graph.Node{0, 63, 64, 65, 127, 128, 255, 299}
	for _, v := range want {
		d.Set(v)
	}
	var got []graph.Node
	d.ForEachInRange(0, 300, func(v graph.Node) { got = append(got, v) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Sub-range iteration respects bounds.
	var sub []graph.Node
	d.ForEachInRange(64, 128, func(v graph.Node) { sub = append(sub, v) })
	for _, v := range sub {
		if v < 64 || v >= 128 {
			t.Fatalf("out-of-range vertex %d", v)
		}
	}
	if len(sub) != 3 { // 64, 65, 127
		t.Fatalf("sub-range found %v", sub)
	}
}

func TestDensePropertySetImpliesTest(t *testing.T) {
	check := func(vals []uint16) bool {
		d := NewDense(1 << 16)
		for _, v := range vals {
			d.Set(graph.Node(v))
		}
		for _, v := range vals {
			if !d.Test(graph.Node(v)) {
				return false
			}
		}
		uniq := map[uint16]bool{}
		for _, v := range vals {
			uniq[v] = true
		}
		return d.Count() == len(uniq)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFullDenseActivatesEveryVertex(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		d := FullDense(n)
		if d.Count() != n {
			t.Errorf("FullDense(%d).Count() = %d", n, d.Count())
		}
		for v := 0; v < n; v++ {
			if !d.Test(graph.Node(v)) {
				t.Errorf("FullDense(%d): vertex %d inactive", n, v)
			}
		}
		// No phantom bits beyond n.
		got := 0
		d.ForEachInRange(0, graph.Node(n), func(graph.Node) { got++ })
		if got != n {
			t.Errorf("FullDense(%d) iterates %d vertices", n, got)
		}
	}
}

func TestDenseSparseConversionRoundTrip(t *testing.T) {
	vs := []graph.Node{0, 5, 63, 64, 99}
	d := DenseFromVertices(100, vs)
	if d.Count() != len(vs) {
		t.Fatalf("count = %d", d.Count())
	}
	out := d.Vertices(nil)
	if len(out) != len(vs) {
		t.Fatalf("vertices = %v", out)
	}
	for i := range vs {
		if out[i] != vs[i] {
			t.Errorf("out[%d] = %d, want %d (ascending order)", i, out[i], vs[i])
		}
	}
}

func TestVerticesAppendsToBuffer(t *testing.T) {
	d := DenseFromVertices(64, []graph.Node{7})
	buf := []graph.Node{1, 2}
	out := d.Vertices(buf)
	if len(out) != 3 || out[2] != 7 {
		t.Errorf("Vertices append = %v", out)
	}
}

func TestUnsetClearsOnlyTargetBit(t *testing.T) {
	d := DenseFromVertices(128, []graph.Node{3, 64, 100})
	d.Unset(64)
	if d.Test(64) {
		t.Error("unset vertex still active")
	}
	if !d.Test(3) || !d.Test(100) {
		t.Error("Unset cleared unrelated bits")
	}
	if d.Count() != 2 {
		t.Errorf("count = %d, want 2", d.Count())
	}
}

// TestMergeClaimsAcrossFragments drives the merge the way a superstep
// exchange does: bare (value-free) fragments, each already sorted and
// deduplicated, one per shard.
func TestMergeClaimsAcrossFragments(t *testing.T) {
	seen := NewDense(12)
	merge := func(frags ...[]graph.Node) []graph.Node {
		got := MergeClaims(seen, frags, nil)
		if seen.Count() != 0 {
			t.Fatal("merge left the dedup set dirty")
		}
		return got
	}
	got := merge([]graph.Node{2, 5, 9}, []graph.Node{1, 5, 7}, nil, []graph.Node{2, 9, 11})
	want := []graph.Node{1, 2, 5, 7, 9, 11}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if merge() != nil {
		t.Error("empty merge should be nil")
	}
	// Shard order must not matter once fragments are sorted and deduped.
	swapped := merge([]graph.Node{2, 9, 11}, []graph.Node{1, 5, 7}, []graph.Node{2, 5, 9})
	for i := range want {
		if swapped[i] != want[i] {
			t.Fatalf("order-dependent merge: %v", swapped)
		}
	}
}

// TestMergeClaimsReusesBuffers: a merge handed its previous result back as
// its output buffer allocates nothing once its capacity suffices.
func TestMergeClaimsReusesBuffers(t *testing.T) {
	seen := NewDense(64)
	dsts := [][]graph.Node{make([]graph.Node, 0, 8), make([]graph.Node, 0, 8)}
	fill := func() {
		dsts[0] = append(dsts[0], 40, 3, 17)
		dsts[1] = append(dsts[1], 17, 63, 3)
	}
	fill()
	out := MergeClaims(seen, dsts, nil)
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		out = MergeClaims(seen, dsts, out)
	}); allocs != 0 {
		t.Errorf("merge into a reused buffer allocated %v times per run", allocs)
	}
	if !slices.Equal(out, []graph.Node{3, 17, 40, 63}) {
		t.Errorf("merged %v", out)
	}
}
