package analytics

import (
	"reflect"
	"runtime"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
)

// Compressed-backend conformance: on the fig7 inputs, every kernel run on
// the byte-compressed CSR backend must produce results byte-identical to
// the raw backend — same outputs, same round count, same per-round
// frontier trajectory (sizes, representation, direction) — with only the
// charging (byte counters, simulated time) allowed to differ. On top of
// that, the compressed runs themselves must be fully byte-identical
// (charging included) across GOMAXPROCS 1, 3 and 8, extending PR 2's
// determinism contract to the new backend.

// compressedKernels lists the kernel executions compared, mirroring the
// fig7 algorithm set plus pr. Each closure builds a fresh runtime on g.
func compressedKernels(t *testing.T, g *graph.Graph) map[string]func(core.Backend) *Result {
	t.Helper()
	src, _ := g.MaxOutDegreeNode()
	build := func(opts core.Options, b core.Backend) *core.Runtime {
		opts.Backend = b
		return testRuntime(t, g, opts)
	}
	return map[string]func(core.Backend) *Result{
		"bfs-diropt": func(b core.Backend) *Result {
			return BFS(build(bothDirOpts(), b), dirOpt, src)
		},
		"bfs-sparse": func(b core.Backend) *Result {
			return BFS(build(galoisOpts(), b), sparseWL, src)
		},
		"cc-shortcut": func(b core.Backend) *Result {
			return CCLabelProp(build(bothDirOpts(), b), sparseWL, true)
		},
		"sssp-delta": func(b core.Backend) *Result {
			return SSSPDeltaStep(build(weightedOpts(), b), src, 64)
		},
		"sssp-bf-dense": func(b core.Backend) *Result {
			return SSSPBellmanFord(build(weightedOpts(), b), denseWL, src)
		},
		"pr": func(b core.Backend) *Result {
			o := bothDirOpts()
			return PageRank(build(o, b), 1e-9, 20)
		},
	}
}

// sameOutputs asserts every kernel output and the frontier trajectory
// match; Stats (charging) is explicitly excluded.
func sameOutputs(t *testing.T, label string, raw, z *Result) {
	t.Helper()
	if raw.Rounds != z.Rounds {
		t.Errorf("%s: rounds %d != %d", label, raw.Rounds, z.Rounds)
	}
	if !reflect.DeepEqual(raw.Dist, z.Dist) ||
		!reflect.DeepEqual(raw.Labels, z.Labels) ||
		!reflect.DeepEqual(raw.Rank, z.Rank) ||
		!reflect.DeepEqual(raw.InCore, z.InCore) ||
		raw.Triangles != z.Triangles {
		t.Errorf("%s: kernel outputs differ between backends", label)
	}
	if len(raw.Trace) != len(z.Trace) {
		t.Fatalf("%s: trace length %d != %d", label, len(raw.Trace), len(z.Trace))
	}
	for i := range raw.Trace {
		a, b := raw.Trace[i], z.Trace[i]
		if a.Round != b.Round || a.Frontier != b.Frontier || a.Edges != b.Edges ||
			a.Dense != b.Dense || a.Pull != b.Pull {
			t.Errorf("%s: round %d trajectory differs: %+v vs %+v", label, i, a, b)
		}
	}
}

func compressedInputs(t *testing.T) []string {
	if testing.Short() || raceEnabled {
		return []string{"rmat32", "clueweb12"}
	}
	// The fig7 input set.
	return []string{"rmat32", "clueweb12", "wdc12"}
}

func TestCompressedBackendByteIdenticalToRaw(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	for _, name := range compressedInputs(t) {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			if !g.HasWeights() {
				// Weight once up front; lazy weighting mid-test would
				// re-encode the compressed blocks between runs.
				g.AddRandomWeights(64, 99)
			}
			g.BuildIn()
			for label, run := range compressedKernels(t, g) {
				t.Run(label, func(t *testing.T) {
					raw := run(core.BackendRaw)
					runtime.GOMAXPROCS(1)
					z1 := run(core.BackendCompressed)
					runtime.GOMAXPROCS(3)
					z3 := run(core.BackendCompressed)
					runtime.GOMAXPROCS(8)
					z8 := run(core.BackendCompressed)
					runtime.GOMAXPROCS(orig)

					sameOutputs(t, label+" raw-vs-compressed", raw, z1)
					// The compressed runs must be byte-identical to each
					// other, charging included, at any GOMAXPROCS.
					for gmp, other := range map[string]*Result{"GOMAXPROCS=3": z3, "GOMAXPROCS=8": z8} {
						if z1.Seconds != other.Seconds {
							t.Errorf("%s: simulated seconds %v != %v", gmp, z1.Seconds, other.Seconds)
						}
						if !reflect.DeepEqual(z1.Counters, other.Counters) {
							t.Errorf("%s: counters differ", gmp)
						}
						if !reflect.DeepEqual(z1.Trace, other.Trace) {
							t.Errorf("%s: traces differ", gmp)
						}
						sameOutputs(t, label+" "+gmp, z1, other)
					}
				})
			}
		})
	}
}

// TestCompressedBackendChargesFewerEdgeBytes pins the backend's point:
// a whole-graph streaming kernel (pr) must read measurably fewer
// adjacency bytes compressed than raw.
func TestCompressedBackendChargesFewerEdgeBytes(t *testing.T) {
	g := scaleSmallInput(t, "clueweb12")
	g.BuildIn()
	read := func(b core.Backend) uint64 {
		o := bothDirOpts()
		o.Backend = b
		r := testRuntime(t, g, o)
		PageRank(r, 1e-9, 10)
		return r.TopologyReadBytes()
	}
	raw, z := read(core.BackendRaw), read(core.BackendCompressed)
	if z >= raw {
		t.Fatalf("compressed backend read %d adjacency bytes, raw %d — compression saved nothing", z, raw)
	}
	t.Logf("adjacency reads: raw %d, compressed %d (%.1f%%)", raw, z, 100*float64(z)/float64(raw))
}

// TestEngineCompressedConfigsMatchReference drives the compressed backend
// through the whole engine configuration space of bfs (sparse, dense,
// dir-opt, hybrid) against the sequential reference, so representation
// conversions and pull early exits are exercised under the block decoder.
func TestEngineCompressedConfigsMatchReference(t *testing.T) {
	for _, name := range compressedInputs(t) {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			src, _ := g.MaxOutDegreeNode()
			want := refBFS(g, src)
			for _, c := range bfsConfigs {
				opts := galoisOpts()
				opts.BothDirections = c.bothDirs
				opts.Backend = core.BackendCompressed
				res := BFS(testRuntime(t, g, opts), c.cfg, src)
				if i, ok := distsEqual(want, res.Dist); !ok {
					t.Fatalf("%s: dist[%d] = %d, want %d", c.name, i, res.Dist[i], want[i])
				}
			}
		})
	}
}
