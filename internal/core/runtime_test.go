package core

import (
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

func newTestMachine() *memsim.Machine {
	return memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
}

func TestNewAllocatesNeededDirectionsOnly(t *testing.T) {
	g := gen.ErdosRenyi(1000, 8000, 1)
	r, err := New(newTestMachine(), g, GaloisDefaults(8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.InOffsets != nil || r.InEdges != nil {
		t.Error("in-edges allocated without BothDirections")
	}
	if r.Weights != nil {
		t.Error("weights allocated without Weighted")
	}
	fwd := r.FootprintBytes()

	opts := GaloisDefaults(8)
	opts.BothDirections = true
	if _, err := New(newTestMachine(), g, opts); err == nil {
		t.Fatal("BothDirections accepted over a graph without the transpose")
	}
	sealed := gen.ErdosRenyi(1000, 8000, 1)
	sealed.BuildIn()
	r2, err := New(newTestMachine(), sealed, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.InOffsets == nil {
		t.Fatal("in-edges missing with BothDirections")
	}
	if g.HasIn() {
		t.Error("New built the transpose on its graph")
	}
	if r2.FootprintBytes() <= fwd {
		t.Errorf("both-directions footprint %d should exceed out-only %d (§6.1)", r2.FootprintBytes(), fwd)
	}
}

func TestWeightedNeedsGraphWeights(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 2)
	g.AddRandomWeights(10, 3)
	opts := GaloisDefaults(4)
	opts.Weighted = true
	r, err := New(newTestMachine(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Weights == nil {
		t.Error("weights array missing")
	}
}

func TestCloseReleasesFootprint(t *testing.T) {
	m := newTestMachine()
	g := gen.ErdosRenyi(2000, 16000, 5)
	r, err := New(m, g, GaloisDefaults(8))
	if err != nil {
		t.Fatal(err)
	}
	r.NodeArray("labels", 4)
	r.ScratchArray("wl", 100, 8)
	before := m.FootprintOnSocket(0) + m.FootprintOnSocket(1)
	if before == 0 {
		t.Fatal("no footprint registered")
	}
	r.Close()
	after := m.FootprintOnSocket(0) + m.FootprintOnSocket(1)
	if after != 0 {
		t.Errorf("footprint after close = %d, want 0", after)
	}
}

func TestParallelVertsCoversAll(t *testing.T) {
	g := gen.Path(101)
	r, err := New(newTestMachine(), g, GaloisDefaults(7))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := make([]bool, 101)
	var coverage [101]int32
	r.ParallelVerts(func(th *memsim.Thread, lo, hi uint32) {
		for v := lo; v < hi; v++ {
			coverage[v]++
		}
	})
	for v, c := range coverage {
		if c != 1 {
			t.Fatalf("vertex %d covered %d times", v, c)
		}
	}
	_ = seen
}

func TestParallelItemsEmptyRange(t *testing.T) {
	g := gen.Path(4)
	r, err := New(newTestMachine(), g, GaloisDefaults(8))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	calls := 0
	r.ParallelItems(0, func(th *memsim.Thread, lo, hi int64) { calls++ })
	if calls != 0 {
		t.Errorf("empty range invoked fn %d times", calls)
	}
}

// The three adjacency forms every traversal charges through AdjView: raw
// slices, compressed blocks, and a delta overlay (here over the raw form,
// with one deleted pair and one parallel insert on vertex 0, so its merged
// degree equals the base degree and its delta holds two entries).
var adjForms = []string{"raw", "compressed", "overlay"}

func newFormRuntime(t *testing.T, m *memsim.Machine, g *graph.Graph, form string) *Runtime {
	t.Helper()
	opts := GaloisDefaults(1)
	var r *Runtime
	var err error
	switch form {
	case "compressed":
		opts.Backend = BackendCompressed
		r, err = New(m, g, opts)
	case "overlay":
		ov, _, oerr := graph.ApplyOverlay(g, []graph.EdgeUpdate{
			{Op: graph.OpDelete, Src: 0, Dst: 3},
			{Op: graph.OpInsert, Src: 0, Dst: 5},
		})
		if oerr != nil {
			t.Fatal(oerr)
		}
		r, err = NewOverlay(m, ov, opts)
	default:
		r, err = New(m, g, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// walk counts v's neighbors through the view's cursor, stopping after
// limit edges, and returns the cursor for its consumption counters.
func walk(av AdjView, v graph.Node, limit int64) (int64, graph.Cursor) {
	c := av.Adj.Cursor(v)
	n := int64(0)
	for n < limit {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	return n, c
}

// scanBytes is what ChargeScan must stream for vertex 0's whole block: the
// base extent in backing elements (4-byte edges, or block bytes) plus 8
// bytes per overlay delta entry.
func scanBytes(av AdjView) uint64 {
	lo, hi := av.Adj.Extent(0)
	bytes := uint64(hi - lo)
	if av.Z == nil {
		bytes *= 4
	}
	if av.Ov != nil {
		dlo, dhi := av.Ov.DeltaExtent(0)
		bytes += 8 * uint64(dhi-dlo)
	}
	return bytes
}

func TestChargeScanChargesWholeBlock(t *testing.T) {
	for _, form := range adjForms {
		m := newTestMachine()
		r := newFormRuntime(t, m, gen.Star(10), form)
		out := r.OutView()
		if n, _ := walk(out, 0, 1<<30); n != 9 || out.Adj.Degree(0) != 9 {
			t.Errorf("%s: star center walked %d neighbors (degree %d), want 9", form, n, out.Adj.Degree(0))
		}
		if form == "overlay" && scanBytes(out) != 9*4+2*8 {
			t.Errorf("overlay: expected scan bytes %d, want base 36 + delta 16", scanBytes(out))
		}
		r.Parallel(func(th *memsim.Thread) { out.ChargeScan(th, 0, false) })
		if got := m.Counters().BytesRead; got != scanBytes(out) {
			t.Errorf("%s: ChargeScan streamed %d bytes, want %d", form, got, scanBytes(out))
		}
	}
}

func TestInViewRequiresTranspose(t *testing.T) {
	g := gen.Star(6)
	r, err := New(newTestMachine(), g, GaloisDefaults(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.InView().Valid() {
		t.Error("in-view valid without the transpose")
	}
	opts := GaloisDefaults(1)
	opts.BothDirections = true
	sealed := gen.Star(6)
	sealed.BuildIn()
	r2, err := New(newTestMachine(), sealed, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.InView().Valid() {
		t.Fatal("in-view missing with BothDirections")
	}
	if n, _ := walk(r2.InView(), 0, 1<<30); n != 5 {
		t.Errorf("star center in-neighbors = %d, want 5", n)
	}
}

func TestChargePrefixChargesLess(t *testing.T) {
	for _, form := range adjForms {
		m := newTestMachine()
		r := newFormRuntime(t, m, gen.Star(1000), form)
		out := r.OutView()
		k, c := walk(out, 0, 10)
		if k != 10 {
			t.Fatalf("%s: prefix walk = %d edges", form, k)
		}
		r.Parallel(func(th *memsim.Thread) {
			out.ChargePrefix(th, 0, c.Consumed(), c.DeltaConsumed(), k)
		})
		want := 4 * uint64(c.Consumed())
		if out.Z != nil { // compressed: the consumed edges' block bytes
			want = uint64(out.Z.PrefixBytes(0, c.Consumed()))
		}
		want += 8 * uint64(c.DeltaConsumed())
		got := m.Counters().BytesRead
		if got != want {
			t.Errorf("%s: ChargePrefix streamed %d bytes, want %d", form, got, want)
		}
		if got >= scanBytes(out) {
			t.Errorf("%s: prefix scan charged %d bytes, as much as the full scan's %d", form, got, scanBytes(out))
		}
	}
}

func TestThreadsClamp(t *testing.T) {
	g := gen.Path(10)
	opts := GaloisDefaults(100000)
	r, err := New(newTestMachine(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stats := r.Parallel(func(th *memsim.Thread) {})
	if stats.Threads != 96 {
		t.Errorf("threads = %d, want clamp to 96", stats.Threads)
	}
}

func TestZeroThreadsDefaultsToMachine(t *testing.T) {
	g := gen.Path(10)
	r, err := New(newTestMachine(), g, Options{GraphPolicy: memsim.Interleaved, PageSize: memsim.PageHuge})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Threads() != 96 {
		t.Errorf("threads defaulted to %d, want 96", r.Threads())
	}
}
