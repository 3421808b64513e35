package bench

import (
	"bytes"
	"runtime"
	"testing"

	"pmemgraph/internal/gen"
)

// The determinism contract of the parallel simulator: simulated times,
// counters and all table output are byte-identical at GOMAXPROCS=1 and
// GOMAXPROCS=NumCPU. These tests run the fig7 + fig9 harness under both
// settings and compare the raw output.

// runFigureHarness regenerates fig7 and fig9 (Quick, ScaleSmall) and
// returns the concatenated table output.
func runFigureHarness(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	for _, exp := range []string{"fig7", "fig9"} {
		if err := Run(exp, Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	return buf.String()
}

func TestFigureHarnessDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig7+fig9 harness three times")
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	// Inputs are sealed where the per-process cache generates them and no
	// run mutates them, so the first run (which may generate them) must
	// print what later runs over the cached graphs print.
	runtime.GOMAXPROCS(1)
	seq1 := runFigureHarness(t)
	seq2 := runFigureHarness(t)
	if seq1 != seq2 {
		t.Fatalf("fig7+fig9 output differs between two GOMAXPROCS=1 runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", seq1, seq2)
	}

	runtime.GOMAXPROCS(runtime.NumCPU())
	par := runFigureHarness(t)
	if seq1 != par {
		t.Fatalf("fig7+fig9 output differs between GOMAXPROCS=1 and GOMAXPROCS=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s", runtime.NumCPU(), seq1, par)
	}
}
