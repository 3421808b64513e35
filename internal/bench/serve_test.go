package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/loadgen"
)

// runFigServe executes the quick figServe sweep once and returns its
// records (without the trailing wall-time record).
func runFigServe(t *testing.T, traceOut string) []Record {
	t.Helper()
	sink := &Sink{}
	var buf bytes.Buffer
	if err := Run("figServe", Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf, Sink: sink, TraceOut: traceOut}); err != nil {
		t.Fatal(err)
	}
	var rows []Record
	for _, r := range sink.Records() {
		if r.Mode != "" {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no figServe records collected\n%s", buf.String())
	}
	return rows
}

// TestGoldenFigServeJSON locks the figServe record stream for
// BENCH_figures.json: schema, row order (mode x class per sweep point) and
// the trace-derived event counts. Unlike the simulated-time goldens, every
// latency/goodput number here is wall-clock — so all load- and
// host-dependent fields are zeroed and the golden pins the deterministic
// skeleton: which rows exist, in what order, over which arrivals.
func TestGoldenFigServeJSON(t *testing.T) {
	if raceEnabled {
		t.Skip("golden bytes are determinism assertions; the race detector adds nothing but ~15x runtime")
	}
	if testing.Short() {
		t.Skip("serving replays are slow")
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	rows := runFigServe(t, tracePath)

	normalized := &Sink{}
	for _, rec := range rows {
		rec.OfferedRPS = 0
		rec.Completed = 0
		rec.Rejected = 0
		rec.Shed = 0
		rec.DeadlineMissed = 0
		rec.P50Ms = 0
		rec.P99Ms = 0
		rec.P999Ms = 0
		rec.GoodputRPS = 0
		rec.WallSeconds = 0
		normalized.Add(rec)
	}
	path := filepath.Join(t.TempDir(), "figserve.json")
	if err := normalized.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figserve_small_json.golden", got)

	// The TraceOut side channel round-trips through the loadgen parser and
	// matches the spec figServe generates from.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := loadgen.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want := figServeSpec(true)
	if trace.Spec.Seed != want.Seed || trace.Spec.Rate != want.Rate || len(trace.Events) == 0 {
		t.Errorf("dumped trace spec = %+v with %d events", trace.Spec, len(trace.Events))
	}
}
