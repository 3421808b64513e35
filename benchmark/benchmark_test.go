package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Tests run inside benchmark/, the real runs from the checkout root.
func TestMain(m *testing.M) {
	benchDir = "."
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecNamesAndCaps(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(contractPerLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) {
		t.Helper()
		if !nameRE.MatchString(s) {
			t.Errorf("name %q does not match %s", s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
	for _, m := range append(fullEndToEnd(), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		if m.Bound == 0 {
			t.Errorf("%s: end-to-end metric without a bound", m.Name)
		}
	}
	setup, ok := findSpec(endToEnd, "setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; have %+v", setup)
	}
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func TestEveryLayerMetricNamesWhatItMoves(t *testing.T) {
	for _, m := range contractPerLayer() {
		if len(m.Moves) == 0 {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
		for _, mv := range m.Moves {
			target, ok := findSpec(fullEndToEnd(), mv.Metric)
			if !ok {
				t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, mv.Metric)
				continue
			}
			if !findWorkload(mv.Workload) {
				t.Errorf("%s moves %s on %q, which is not a workload", m.Name, mv.Metric, mv.Workload)
			}
			if target.On != nil && !slices.Contains(target.On, mv.Workload) {
				t.Errorf("%s moves %s on %s, where it is not reported", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go from
// drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %+v", i, file.Workloads[i], w)
		}
	}
	same := func(kind string, got []jm, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, spec.go has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from spec.go's %v", w.Name, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", w.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, contractPerLayer(), false)
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {5, 0.5}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1..200: p95 with linear interpolation.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	m := summarizeTail(xs, 1)
	if m.Pct != 95 || math.Abs(m.Value-190.05) > 1e-9 || m.N != 200 {
		t.Errorf("summarizeTail(1..200) = %+v", m)
	}
	if med := summarize(xs, 2); med.Value != 201 || med.Q1 != 101.5 || med.Q3 != 300.5 {
		t.Errorf("summarize(1..200, x2) = %+v", med)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, StartUS: 10, EndUS: 30},
		{ID: 2, Parent: 0, StartUS: 20, EndUS: 50},  // overlaps span 1: the union counts once
		{ID: 3, Parent: 0, StartUS: 90, EndUS: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 2, StartUS: 25, EndUS: 45},
	}
	want := []float64{50, 20, 10, 30, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %v, want %v", i, got, want[i])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start(-1, "x", "op")) // a nil tracer records nothing and must not panic
}

var smokeSizes = sizes{
	crawlN: 2000, crawlDeg: 8, crawlDepth: 40,
	rmatScale: 11, rmatDeg: 8,
	webN:      2000,
	kronScale: 10, kronDeg: 8,
	setupReps: 1,
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, lw := range libraryWorkloads {
		a, b, c := lw.build(7, smokeSizes), lw.build(7, smokeSizes), lw.build(8, smokeSizes)
		if graphDigest(a) != graphDigest(b) {
			t.Errorf("%s: the same seed built two different graphs", name)
		}
		if graphDigest(a) == graphDigest(c) {
			t.Errorf("%s: seeds 7 and 8 built the same graph", name)
		}
	}
	a, err := generateTrace(7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateTrace(7, 500)
	c, _ := generateTrace(8, 500)
	if !bytes.Equal(a.bytes, b.bytes) {
		t.Error("the same seed generated two different traces")
	}
	if bytes.Equal(a.bytes, c.bytes) {
		t.Error("seeds 7 and 8 generated the same trace")
	}
}

// TestQuotaReplayFixesTheMix: whatever the seed, n replayed events hold each
// stratum's nominal share, in trace order.
func TestQuotaReplayFixesTheMix(t *testing.T) {
	var first map[string]int
	for seed := uint64(1); seed <= 4; seed++ {
		tr, err := generateTrace(seed, traceEventsFor(defaultSeconds))
		if err != nil {
			t.Fatal(err)
		}
		evs, next, err := quotaReplay(tr, 0, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 200 || next < 200 {
			t.Fatalf("seed %d: %d events, resumed at %d", seed, len(evs), next)
		}
		counts := map[string]int{}
		for i, ev := range evs {
			counts[stratum(ev)]++
			if i > 0 && ev.Seq <= evs[i-1].Seq {
				t.Fatalf("seed %d: replay left the trace's order", seed)
			}
		}
		if counts["browsers/bfs"] != 120 || counts["scanners/cc"] != 15 || counts["scanners/bfs"] != 15 {
			t.Errorf("seed %d: mix %v", seed, counts)
		}
		if first == nil {
			first = counts
		}
		for s, n := range first {
			if counts[s] != n {
				t.Errorf("seed %d: %d of %s, seed 1 had %d", seed, counts[s], s, n)
			}
		}
	}
}

// TestLibrarySmoke runs each library workload at 2k vertices through the
// code path a real run takes: set-up, references, timed passes, checks.
func TestLibrarySmoke(t *testing.T) {
	for _, w := range []string{wCrawl, wPower, wShard} {
		r := newRun(runConfig{workload: w, seed: 3, seconds: 0.01, sizes: smokeSizes})
		if err := runLibrary(r, libraryWorkloads[w]); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.chk.failed != 0 || r.chk.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w, r.chk.failed, r.chk.attempted, r.chk.notes)
		}
		for _, spec := range endToEnd {
			if m, ok := r.e2e[spec.Name]; !ok || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v, want a positive measurement", w, spec.Name, m)
			}
		}
		if n := r.e2e["pass_s"].N; n < 3 {
			t.Errorf("%s: %d timed passes, want at least 3", w, n)
		}
	}
}

func TestTracedOpMatchesUntraced(t *testing.T) {
	lw := libraryWorkloads[wShard]
	in, _, _, err := lw.setup(3, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, app := range lw.apps {
		plain, err := lw.runOp(in, app)
		if err != nil {
			t.Fatal(err)
		}
		traced, secs, err := lw.runOpTraced(tr, "op/"+app, in, app)
		if err != nil {
			t.Fatal(err)
		}
		if digestResult(plain) != digestResult(traced) || plain.Seconds != traced.Seconds || !(secs > 0) {
			t.Errorf("%s: the traced decomposition computed something else than the entry point", app)
		}
	}
	for _, s := range tr.spans {
		if s.EndUS < s.StartUS {
			t.Errorf("span %q never ended", s.Name)
		}
	}
}

func TestCompare(t *testing.T) {
	quartiles := 0.01
	write := func(name string, pass, sim float64) string {
		f := resultsFile{Seed: 1, Seconds: 12, Runs: []runResult{{
			Workload: wCrawl, Correct: true, Attempted: 10,
			EndToEnd: map[string]measurement{
				"pass_s":      {Value: pass, Q1: pass * (1 - quartiles), Q3: pass * (1 + quartiles), N: 5},
				"sim_seconds": {Value: sim, Q1: sim, Q3: sim, N: 5},
			},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 2.0, 8.5)
	var out bytes.Buffer
	if code := compareFiles(base, write("b.json", 2.1, 8.5), &out); code != 0 {
		t.Errorf("5%% slower pass_s within its bound: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(base, write("c.json", 2.8, 8.5), &out); code != 1 {
		t.Errorf("40%% slower pass_s: exit %d", code)
	}
	quartiles = 0.2 // the same 40 %, but from passes 40 % apart: nothing can be said
	out.Reset()
	if code := compareFiles(base, write("e.json", 2.8, 8.5), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("40%% slower pass_s with 40%% between its own quartiles: exit %d\n%s", code, out.String())
	}
	quartiles = 0.01
	out.Reset()
	if code := compareFiles(base, write("d.json", 2.0, 8.5000001), &out); code != 1 || !strings.Contains(out.String(), "exact metric changed") {
		t.Errorf("changed sim_seconds: exit %d\n%s", code, out.String())
	}
}
