package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pmemgraph/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// The golden files pin the exact ScaleSmall/Quick bytes of the fig7/fig9
// tables and the -json records: every number in them is simulated (and the
// simulation is deterministic at any GOMAXPROCS), so any drift — charging
// changes, formatting changes, record-schema changes — fails loudly here
// instead of silently shifting BENCH_figures.json between PRs. Regenerate
// deliberately with:
//
//	go test ./internal/bench -run TestGolden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden bytes (-want +got):\n%s", name, diffLines(want, got))
	}
}

// diffLines renders a small line diff for golden mismatches.
func diffLines(want, got []byte) string {
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	n := len(wantLines)
	if len(gotLines) > n {
		n = len(gotLines)
	}
	shown := 0
	for i := 0; i < n && shown < 20; i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			fmt.Fprintf(&out, "line %d:\n-%s\n+%s\n", i+1, w, g)
			shown++
		}
	}
	if shown == 0 {
		return "(lengths differ only)"
	}
	return out.String()
}

func runGoldenExperiment(t *testing.T, name string, sink *Sink) []byte {
	t.Helper()
	if raceEnabled {
		t.Skip("golden bytes are determinism assertions; the race detector adds nothing but ~15x runtime")
	}
	var buf bytes.Buffer
	if err := Run(name, Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf, Sink: sink}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.Bytes()
}

func TestGoldenFig7Table(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	checkGolden(t, "fig7_small.golden", runGoldenExperiment(t, "fig7", nil))
}

func TestGoldenFig9Table(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	checkGolden(t, "fig9_small.golden", runGoldenExperiment(t, "fig9", nil))
}

// TestGoldenFiguresJSON locks the -json record stream (schema, record
// order and simulated values) for the fig7+fig9 subset. Wall-clock fields
// are the single nondeterministic part of the format, so they are zeroed
// before comparison; everything else must match exactly.
func TestGoldenFiguresJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	sink := &Sink{}
	runGoldenExperiment(t, "fig7", sink)
	runGoldenExperiment(t, "fig9", sink)

	normalized := &Sink{}
	for _, rec := range sink.Records() {
		rec.WallSeconds = 0
		normalized.Add(rec)
	}
	path := filepath.Join(t.TempDir(), "figures.json")
	if err := normalized.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figures_small_json.golden", got)
}

// TestGoldenFig6Table pins every Figure 5 configuration (page size ×
// migration on both machines) together with its kernel/user counters.
func TestGoldenFig6Table(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	checkGolden(t, "fig6_small.golden", runGoldenExperiment(t, "fig6", nil))
}

// TestGoldenFig11Table pins the cluster columns (DB/DM/DS) and the
// single-machine vertex-program (OS/OA) and best-algorithm (OB) columns.
func TestGoldenFig11Table(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	checkGolden(t, "fig11_small.golden", runGoldenExperiment(t, "fig11", nil))
}

// TestGoldenFigStreamTable pins the full and seeded incremental cc/pr runs.
func TestGoldenFigStreamTable(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	checkGolden(t, "figstream_small.golden", runGoldenExperiment(t, "figStream", nil))
}
