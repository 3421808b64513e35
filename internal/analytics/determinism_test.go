package analytics

import (
	"reflect"
	"runtime"
	"testing"

	"pmemgraph/internal/gen"
)

// Kernel-level determinism: a kernel run on a freshly generated graph and
// machine must produce a byte-identical Result — simulated seconds, per-
// round Trace (frontier sizes, directions, RegionStats), and outputs — at
// GOMAXPROCS=1 and GOMAXPROCS=NumCPU. This is the invariant the shard-and-
// merge charging, static chunk ownership, and snapshot-deterministic
// operators exist to uphold.

// kernelRuns builds each kernel run on its own fresh graph and runtime so
// no state leaks between executions.
func kernelRuns(t *testing.T) map[string]func() *Result {
	t.Helper()
	return map[string]func() *Result{
		"bfs-diropt": func() *Result {
			g := sealed(gen.WebCrawl(20000, 8, 200, 23))
			src, _ := g.MaxOutDegreeNode()
			return BFS(testRuntime(t, g, bothDirOpts()), dirOpt, src)
		},
		"bfs-sparse": func() *Result {
			g := gen.WebCrawl(20000, 8, 200, 23)
			src, _ := g.MaxOutDegreeNode()
			return BFS(testRuntime(t, g, galoisOpts()), sparseWL, src)
		},
		"cc-shortcut": func() *Result {
			g := sealed(gen.WebCrawl(12000, 6, 120, 29))
			return CCLabelProp(testRuntime(t, g, bothDirOpts()), sparseWL, true)
		},
		"sssp-delta": func() *Result {
			g := gen.WebCrawl(12000, 6, 120, 31)
			g.AddRandomWeights(64, 7)
			src, _ := g.MaxOutDegreeNode()
			return SSSPDeltaStep(testRuntime(t, g, weightedOpts()), src, 64)
		},
		"kcore-sparse": func() *Result {
			g := sealed(gen.Kron(13, 12, 5))
			return KCore(testRuntime(t, g, bothDirOpts()), sparseWL, 8)
		},
		"pr": func() *Result {
			g := sealed(gen.Kron(13, 12, 5))
			return PageRank(testRuntime(t, g, bothDirOpts()), 1e-9, 30)
		},
	}
}

func TestResultsByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	for name, run := range kernelRuns(t) {
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			seq := run()
			seqAgain := run()
			runtime.GOMAXPROCS(runtime.NumCPU())
			par := run()

			for _, cmp := range []struct {
				label string
				other *Result
			}{
				{"repeat at GOMAXPROCS=1", seqAgain},
				{"GOMAXPROCS=NumCPU", par},
			} {
				if seq.Seconds != cmp.other.Seconds {
					t.Errorf("%s: simulated seconds %v != %v", cmp.label, seq.Seconds, cmp.other.Seconds)
				}
				if seq.Rounds != cmp.other.Rounds {
					t.Errorf("%s: rounds %d != %d", cmp.label, seq.Rounds, cmp.other.Rounds)
				}
				if !reflect.DeepEqual(seq.Trace, cmp.other.Trace) {
					t.Errorf("%s: Result.Trace differs", cmp.label)
				}
				if !reflect.DeepEqual(seq.Counters, cmp.other.Counters) {
					t.Errorf("%s: counters differ", cmp.label)
				}
				if !reflect.DeepEqual(seq.Dist, cmp.other.Dist) ||
					!reflect.DeepEqual(seq.Labels, cmp.other.Labels) ||
					!reflect.DeepEqual(seq.Rank, cmp.other.Rank) ||
					!reflect.DeepEqual(seq.InCore, cmp.other.InCore) {
					t.Errorf("%s: kernel outputs differ", cmp.label)
				}
			}
		})
	}
}
