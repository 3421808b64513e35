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
		t.Skip("runs the fig7+fig9 harness four times")
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	// Warm-up run: harness graphs are cached per process and gain weights
	// and transposes on first use, so the comparison runs all start from
	// the same (settled) graph state — exactly like repeated pmembench
	// invocations.
	runtime.GOMAXPROCS(1)
	runFigureHarness(t)

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
