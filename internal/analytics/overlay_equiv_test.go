package analytics

import (
	"reflect"
	"runtime"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Overlay-epoch conformance: every kernel run over a delta-overlay epoch
// must produce results byte-identical to the same epoch rebuilt from
// scratch — same outputs, same round count, same frontier trajectory —
// across both storage backends, with only the charging allowed to differ
// (the overlay charges base arrays plus its own small delta arrays). And
// the overlay runs themselves must be byte-identical, charging included,
// across GOMAXPROCS 1, 3 and 8 — the determinism contract extends to the
// new adjacency form.

// testRuntimeOverlay builds a runtime over an overlay epoch on the same
// scaled Optane machine testRuntime uses.
func testRuntimeOverlay(t *testing.T, ov *graph.Overlay, opts core.Options) *core.Runtime {
	t.Helper()
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	if opts.Threads == 0 {
		opts.Threads = 8
	}
	r, err := core.NewOverlay(m, ov, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// overlayEpoch builds the compared pair: a base sealed the way the serving
// layer seals epochs, a chain of update batches folded into one overlay,
// and the same chain applied as merge rebuilds.
func overlayEpoch(t *testing.T, name string, batches int) (*graph.Overlay, *graph.Graph) {
	t.Helper()
	base := scaleSmallInput(t, name)
	if !base.HasWeights() {
		base.AddRandomWeights(64, 99)
	}
	base.BuildIn()

	ups, err := gen.UpdateStream(base, batches, 40, 0xBEEF, true)
	if err != nil {
		t.Fatal(err)
	}
	// UpdateStream evolves a working copy internally, so each batch is
	// valid for the state all earlier batches produce — exactly the chain
	// both forms replay here.
	ov := graph.NewOverlay(base)
	cur := base
	for i, batch := range ups {
		ov, _, err = ov.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d overlay: %v", i, err)
		}
		cur, _, err = graph.ApplyUpdates(cur, batch)
		if err != nil {
			t.Fatalf("batch %d rebuild: %v", i, err)
		}
	}
	cur.BuildIn()
	if err := ov.Validate(); err != nil {
		t.Fatal(err)
	}
	return ov, cur
}

// overlayKernels mirrors compressedKernels plus the degree-dispatching
// kernels (kcore, tc): each closure runs one kernel over either the
// overlay epoch or its rebuild, on the chosen backend.
func overlayKernels(t *testing.T, ov *graph.Overlay, cur *graph.Graph) map[string]func(overlay bool, b core.Backend) *Result {
	t.Helper()
	ovSrc, _ := ov.MaxOutDegreeNode()
	src, _ := cur.MaxOutDegreeNode()
	if ovSrc != src {
		t.Fatalf("source pick differs: overlay %d, rebuild %d", ovSrc, src)
	}
	build := func(overlay bool, opts core.Options, b core.Backend) *core.Runtime {
		opts.Backend = b
		if overlay {
			return testRuntimeOverlay(t, ov, opts)
		}
		return testRuntime(t, cur, opts)
	}
	return map[string]func(overlay bool, b core.Backend) *Result{
		"bfs-diropt": func(o bool, b core.Backend) *Result {
			return BFS(build(o, bothDirOpts(), b), dirOpt, src)
		},
		"bfs-sparse": func(o bool, b core.Backend) *Result {
			return BFS(build(o, galoisOpts(), b), sparseWL, src)
		},
		"cc-shortcut": func(o bool, b core.Backend) *Result {
			return CCLabelProp(build(o, bothDirOpts(), b), sparseWL, true)
		},
		"sssp-delta": func(o bool, b core.Backend) *Result {
			return SSSPDeltaStep(build(o, weightedOpts(), b), src, 64)
		},
		"sssp-bf-dense": func(o bool, b core.Backend) *Result {
			return SSSPBellmanFord(build(o, weightedOpts(), b), denseWL, src)
		},
		"pr": func(o bool, b core.Backend) *Result {
			return PageRank(build(o, bothDirOpts(), b), 1e-9, 20)
		},
		"kcore": func(o bool, b core.Backend) *Result {
			return KCore(build(o, bothDirOpts(), b), sparseWL, 4)
		},
		"tc": func(o bool, b core.Backend) *Result {
			return TC(build(o, galoisOpts(), b))
		},
	}
}

func TestOverlayEpochByteIdenticalToRebuild(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	inputs := []string{"rmat32", "clueweb12"}
	if testing.Short() || raceEnabled {
		inputs = []string{"rmat32"}
	}
	for _, name := range inputs {
		t.Run(name, func(t *testing.T) {
			ov, cur := overlayEpoch(t, name, 3)
			for label, run := range overlayKernels(t, ov, cur) {
				t.Run(label, func(t *testing.T) {
					rebuilt := run(false, core.BackendRaw)
					for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
						runtime.GOMAXPROCS(1)
						o1 := run(true, backend)
						runtime.GOMAXPROCS(3)
						o3 := run(true, backend)
						runtime.GOMAXPROCS(8)
						o8 := run(true, backend)
						runtime.GOMAXPROCS(orig)

						sameOutputs(t, label+" overlay-vs-rebuild "+backend.String(), rebuilt, o1)
						for gmp, other := range map[string]*Result{"GOMAXPROCS=3": o3, "GOMAXPROCS=8": o8} {
							if o1.Seconds != other.Seconds {
								t.Errorf("%s %s: simulated seconds %v != %v", backend, gmp, o1.Seconds, other.Seconds)
							}
							if !reflect.DeepEqual(o1.Counters, other.Counters) {
								t.Errorf("%s %s: counters differ", backend, gmp)
							}
							sameOutputs(t, label+" "+gmp, o1, other)
						}
					}
				})
			}
		})
	}
}

// TestOverlayChargesDeltaSeparately pins the honest-charging split: an
// overlay run reads base adjacency bytes PLUS a small delta-array stream,
// so its topology traffic exceeds a run over the bare base but by no more
// than the delta's share.
func TestOverlayChargesDeltaSeparately(t *testing.T) {
	ov, _ := overlayEpoch(t, "rmat32", 2)
	o := bothDirOpts()
	rOv := testRuntimeOverlay(t, ov, o)
	PageRank(rOv, 1e-9, 10)
	ovBytes := rOv.TopologyReadBytes()

	rBase := testRuntime(t, ov.Base(), o)
	PageRank(rBase, 1e-9, 10)
	baseBytes := rBase.TopologyReadBytes()

	if ovBytes <= baseBytes {
		t.Fatalf("overlay run read %d topology bytes, base-only run %d — delta entries were not charged", ovBytes, baseBytes)
	}
	if ratio := float64(ovBytes) / float64(baseBytes); ratio > 1.5 {
		t.Fatalf("overlay charging overhead %.2fx — delta must be a small separate stream, not a rebuilt graph", ratio)
	}
}
