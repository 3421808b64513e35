package analytics

import (
	"reflect"
	"runtime"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// Incremental conformance: after a batched update, the incremental cc and
// pr kernels must produce outputs BITWISE IDENTICAL to a from-scratch run
// on the post-update graph — same labels, same ranks, same
// tolerance-crossing round — across GOMAXPROCS 1/3/8 and both storage
// backends, with only the charging (seconds, counters) allowed to differ.
// This is the acceptance contract of the streaming-update path.

// incUpdateBatch builds a deterministic insert-heavy batch against g:
// size/2 random new pairs plus, when withDeletes is set, size/4 deletions
// of existing edges (pr only; cc falls back on deletions).
func incUpdateBatch(t *testing.T, g *graph.Graph, size int, seed uint64, withDeletes bool) []graph.EdgeUpdate {
	t.Helper()
	stream, err := gen.UpdateStream(g, 1, size, seed, withDeletes)
	if err != nil {
		t.Fatal(err)
	}
	return stream[0]
}

// applied returns the post-update graph and delta, sealed enough for both
// backends (weights, transpose, compressed encodings).
func applied(t *testing.T, g *graph.Graph, ups []graph.EdgeUpdate) (*graph.Graph, *graph.Delta) {
	t.Helper()
	ng, delta, err := graph.ApplyUpdates(g, ups)
	if err != nil {
		t.Fatal(err)
	}
	ng.BuildIn()
	return ng, &delta
}

// skipSweepUnderRace trims the GOMAXPROCS-sweep conformance tests from the
// blanket -race job: they assert determinism, not memory safety, and the
// incremental kernels' parallel internals already run under -race via the
// server conformance suite (incremental serving) and the charges test
// below.
func skipSweepUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("determinism sweep adds ~15x runtime under race and no race coverage beyond the server suite")
	}
}

func TestIncrementalCCMatchesFullRecompute(t *testing.T) {
	skipSweepUnderRace(t)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, name := range compressedInputs(t) {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			g.BuildIn()
			prior := CCLabelProp(testRuntime(t, g, bothDirOpts()), sparseWL, true).Labels
			ups := incUpdateBatch(t, g, 64, 0xCC01, false)
			ng, delta := applied(t, g, ups)
			want := CCLabelProp(testRuntime(t, ng, bothDirOpts()), sparseWL, true).Labels
			// The canonical min-ID labeling is shared by every full
			// variant; pointer-jump must agree too.
			if pj := CCPointerJump(testRuntime(t, ng, bothDirOpts())); !reflect.DeepEqual(pj.Labels, want) {
				t.Fatal("full cc variants disagree on the post-update graph")
			}
			run := func(backend core.Backend) *Result {
				o := bothDirOpts()
				o.Backend = backend
				return CCIncremental(testRuntime(t, ng, o), prior, delta)
			}
			runtime.GOMAXPROCS(1)
			inc1 := run(core.BackendRaw)
			runtime.GOMAXPROCS(3)
			inc3 := run(core.BackendRaw)
			incZ := run(core.BackendCompressed)
			runtime.GOMAXPROCS(8)
			inc8 := run(core.BackendRaw)
			runtime.GOMAXPROCS(orig)
			for label, res := range map[string]*Result{
				"GOMAXPROCS=1": inc1, "GOMAXPROCS=3": inc3, "GOMAXPROCS=8": inc8, "compressed": incZ,
			} {
				if !reflect.DeepEqual(res.Labels, want) {
					t.Errorf("%s: incremental labels differ from full recompute", label)
				}
			}
			if inc1.Seconds != inc3.Seconds || inc1.Seconds != inc8.Seconds {
				t.Errorf("incremental cc charging not GOMAXPROCS-deterministic: %v %v %v",
					inc1.Seconds, inc3.Seconds, inc8.Seconds)
			}
		})
	}
}

func TestIncrementalPRMatchesFullRecompute(t *testing.T) {
	skipSweepUnderRace(t)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	const tol, maxRounds = 1e-9, 20
	for _, name := range compressedInputs(t) {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			g.BuildIn()
			_, seed := PageRankRecord(testRuntime(t, g, bothDirOpts()), tol, maxRounds)
			// Deletions are fine for pr: the taint region covers them.
			ups := incUpdateBatch(t, g, 64, 0x9901, true)
			ng, delta := applied(t, g, ups)
			full := PageRank(testRuntime(t, ng, bothDirOpts()), tol, maxRounds)
			run := func(backend core.Backend) *Result {
				o := bothDirOpts()
				o.Backend = backend
				res, _ := PageRankIncremental(testRuntime(t, ng, o), seed, delta, tol, maxRounds)
				return res
			}
			runtime.GOMAXPROCS(1)
			inc1 := run(core.BackendRaw)
			runtime.GOMAXPROCS(3)
			inc3 := run(core.BackendRaw)
			incZ := run(core.BackendCompressed)
			runtime.GOMAXPROCS(8)
			inc8 := run(core.BackendRaw)
			runtime.GOMAXPROCS(orig)
			for label, res := range map[string]*Result{
				"GOMAXPROCS=1": inc1, "GOMAXPROCS=3": inc3, "GOMAXPROCS=8": inc8, "compressed": incZ,
			} {
				if res.Rounds != full.Rounds {
					t.Errorf("%s: incremental stopped at round %d, full at %d", label, res.Rounds, full.Rounds)
				}
				if !reflect.DeepEqual(res.Rank, full.Rank) {
					t.Errorf("%s: incremental ranks differ bitwise from full recompute", label)
				}
			}
			if inc1.Seconds != inc3.Seconds || inc1.Seconds != inc8.Seconds {
				t.Errorf("incremental pr charging not GOMAXPROCS-deterministic: %v %v %v",
					inc1.Seconds, inc3.Seconds, inc8.Seconds)
			}
		})
	}
}

// TestIncrementalSeedsChainAcrossEpochs applies two successive batches,
// seeding the second incremental run from the first incremental run's own
// recorded trajectory — the serving-layer steady state.
func TestIncrementalSeedsChainAcrossEpochs(t *testing.T) {
	skipSweepUnderRace(t)
	const tol, maxRounds = 1e-9, 20
	g := scaleSmallInput(t, "clueweb12")
	g.BuildIn()
	_, seed0 := PageRankRecord(testRuntime(t, g, bothDirOpts()), tol, maxRounds)

	g1, delta1 := applied(t, g, incUpdateBatch(t, g, 32, 0xAB01, true))
	inc1, seed1 := PageRankIncremental(testRuntime(t, g1, bothDirOpts()), seed0, delta1, tol, maxRounds)
	if full1 := PageRank(testRuntime(t, g1, bothDirOpts()), tol, maxRounds); !reflect.DeepEqual(inc1.Rank, full1.Rank) {
		t.Fatal("epoch 1 incremental ranks differ from full recompute")
	}

	g2, delta2 := applied(t, g1, incUpdateBatch(t, g1, 32, 0xAB02, true))
	inc2, _ := PageRankIncremental(testRuntime(t, g2, bothDirOpts()), seed1, delta2, tol, maxRounds)
	full2 := PageRank(testRuntime(t, g2, bothDirOpts()), tol, maxRounds)
	if inc2.Rounds != full2.Rounds || !reflect.DeepEqual(inc2.Rank, full2.Rank) {
		t.Fatal("epoch 2 incremental ranks (seeded from an incremental run) differ from full recompute")
	}
}

// TestIncrementalPRChargesLessThanFull pins the point of the streaming
// path: a small batch must cost measurably less simulated time than a
// from-scratch run on the same machine.
func TestIncrementalPRChargesLessThanFull(t *testing.T) {
	const tol, maxRounds = 1e-9, 20
	g := scaleSmallInput(t, "clueweb12")
	g.BuildIn()
	_, seed := PageRankRecord(testRuntime(t, g, bothDirOpts()), tol, maxRounds)
	ng, delta := applied(t, g, incUpdateBatch(t, g, 16, 0x5EED, false))
	full := PageRank(testRuntime(t, ng, bothDirOpts()), tol, maxRounds)
	inc, _ := PageRankIncremental(testRuntime(t, ng, bothDirOpts()), seed, delta, tol, maxRounds)
	if inc.Seconds >= full.Seconds {
		t.Fatalf("incremental pr (%.6fs) not cheaper than full recompute (%.6fs)", inc.Seconds, full.Seconds)
	}
	t.Logf("pr batch=16: incremental %.6fs vs full %.6fs (%.1f%%)",
		inc.Seconds, full.Seconds, 100*inc.Seconds/full.Seconds)
}
