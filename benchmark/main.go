// Command benchmark is the repository's performance benchmark: five
// workloads, end-to-end metrics on two clocks (simulated and host), a
// per-layer ladder and a traced run. See README.md in this directory.
//
// It is started through run.sh from the root of a checkout:
//
//	bash benchmark/run.sh -seed 1                 every workload, untraced
//	bash benchmark/run.sh -seed 1 -trace 1        ... and the traced runs
//	bash benchmark/run.sh -workload crawl_sparse -seed 7 -seconds 12 -trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// benchDir is the benchmark's own directory relative to the working
// directory (the checkout root under run.sh; tests run inside it).
var benchDir = "benchmark"

// servedBinary is the pmemserved build run.sh leaves behind.
var servedBinary = filepath.Join(".bench_build", "pmemserved")

func outDir() string { return filepath.Join(benchDir, "out") }

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// runConfig is one workload run.
type runConfig struct {
	workload       string
	seed           uint64
	seconds        float64
	trace          bool
	updateExpected bool
	sizes          sizes
}

// run carries one workload run's state: the output checker, the tracer
// (nil when untraced) and the metrics gathered so far.
type run struct {
	cfg   runConfig
	chk   checker
	tr    *tracer
	e2e   map[string]measurement
	layer map[string]measurement
	refs  map[string]string // reference output digests, pinned for one seed
}

func newRun(cfg runConfig) *run {
	r := &run{cfg: cfg, e2e: map[string]measurement{}, layer: map[string]measurement{}, refs: map[string]string{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// runResult is what one workload run leaves in benchmark/out/ and what
// results.json collects.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	EndToEnd  map[string]measurement `json:"end_to_end,omitempty"`
	PerLayer  map[string]measurement `json:"per_layer,omitempty"`
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	sweep()
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: all five, each in a child process)")
	seed := flag.Uint64("seed", 1, "derives every generator seed")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each workload's timed section")
	trace := flag.Int("trace", 0, "1 = traced run: spans, per-layer probes")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments")
	updateExpected := flag.Bool("update-expected", false, "rewrite expected.json from this run's reference outputs")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two results.json paths")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	watchSignals()
	defer sweep()
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fatal("%v", err)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *trace != 0, *updateExpected))
	}
	if !findWorkload(*workload) {
		fatal("unknown workload %q", *workload)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		updateExpected: *updateExpected, sizes: fullSizes}
	code := runOne(cfg)
	sweep()
	os.Exit(code)
}

// runOne runs one workload in this process, prints one line per metric and
// then the contract's JSON object as the last line of standard output.
func runOne(cfg runConfig) int {
	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case wCrawl, wPower, wShard:
		err = runLibrary(r, libraryWorkloads[cfg.workload])
	case wServe:
		err = runServe(r)
	case wUpdate:
		err = runUpdate(r)
	}
	if err != nil {
		fatal("%s: %v", cfg.workload, err)
	}
	if err := checkPinned(&r.chk, cfg.workload, cfg.seed, cfg.seconds, r.refs, cfg.updateExpected); err != nil {
		fatal("%v", err)
	}
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(outDir(), "trace-"+cfg.workload+".json")); err != nil {
			fatal("writing trace: %v", err)
		}
	}
	if r.chk.attempted == 0 {
		fatal("%s: no operation was attempted", cfg.workload)
	}
	r.e2e["failed_share"] = single(float64(r.chk.failed) / float64(r.chk.attempted))
	res := runResult{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Correct: r.chk.failed == 0, Attempted: r.chk.attempted, Failed: r.chk.failed, Notes: r.chk.notes,
		EndToEnd: stampUnits(r.e2e, fullEndToEnd()),
	}
	if cfg.trace {
		// What the workload measured end to end wins over the probe
		// session's stand-in for it.
		for _, spec := range demoted {
			if m, ok := r.e2e[spec.Name]; ok {
				r.layer[spec.Name] = m
			}
		}
		res.PerLayer = stampUnits(r.layer, contractPerLayer())
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(runFile(cfg.workload, cfg.trace), append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	for _, note := range res.Notes {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", note)
	}

	// The contract line: every end_to_end metric untraced, every per_layer
	// metric traced, nothing else.
	list, have := endToEnd, res.EndToEnd
	if cfg.trace {
		list, have = contractPerLayer(), res.PerLayer
	}
	printLines(os.Stdout, cfg.workload, list, have)
	type cm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cm `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]cm{}}
	for _, spec := range list {
		m, ok := have[spec.Name]
		if !ok {
			fatal("%s did not measure %s", cfg.workload, spec.Name)
		}
		out.Metrics[spec.Name] = cm{m.Value, spec.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// traceFlag is the -trace argument of a traced or untraced run.
func traceFlag(traced bool) string {
	if traced {
		return "1"
	}
	return "0"
}

func runFile(workload string, traced bool) string {
	return filepath.Join(outDir(), "run-"+workload+"-trace"+traceFlag(traced)+".json")
}

// stampUnits copies the measurements the specs name, filling in units.
func stampUnits(ms map[string]measurement, specs []metricSpec) map[string]measurement {
	out := make(map[string]measurement, len(ms))
	for _, spec := range specs {
		if m, ok := ms[spec.Name]; ok {
			m.Unit = spec.Unit
			out[spec.Name] = m
		}
	}
	return out
}

// printLines prints `workload metric value unit n q1 q3` per metric.
func printLines(w *os.File, workload string, specs []metricSpec, ms map[string]measurement) {
	for _, spec := range specs {
		m, ok := ms[spec.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s %s %s %s %d %s %s\n", workload, spec.Name, fnum(m.Value), spec.Unit, m.N, fnum(m.Q1), fnum(m.Q3))
	}
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// resultsFile is benchmark/out/results.json: one merged entry per workload.
type resultsFile struct {
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	GoMaxP  int         `json:"gomaxprocs"`
	Runs    []runResult `json:"runs"`
}

// runAll runs every workload in its own child process (so peak_rss_mb does
// not mix), untraced, and then traced when asked; it prints every metric
// and writes results.json.
func runAll(seed uint64, seconds float64, traced, updateExpected bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	file := resultsFile{Seed: seed, Seconds: seconds, GoMaxP: runtime.GOMAXPROCS(0)}
	code := 0
	for _, w := range workloads {
		var merged runResult
		for _, t := range []bool{false, true} {
			if t && !traced {
				continue
			}
			args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceFlag(t)}
			if updateExpected && !t {
				args = append(args, "-update-expected")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v): %v\n", w.Name, t, err)
				code = 1
			}
			data, err := os.ReadFile(runFile(w.Name, t))
			if err != nil {
				fatal("%s left no result: %v", w.Name, err)
			}
			var res runResult
			if err := json.Unmarshal(data, &res); err != nil {
				fatal("%s: %v", runFile(w.Name, t), err)
			}
			if !t {
				merged = res
				printLines(os.Stdout, w.Name, fullEndToEnd(), res.EndToEnd)
			} else {
				merged.PerLayer = res.PerLayer
				merged.Correct = merged.Correct && res.Correct
				merged.Notes = append(merged.Notes, res.Notes...)
				printLines(os.Stdout, w.Name, contractPerLayer(), res.PerLayer)
			}
		}
		file.Runs = append(file.Runs, merged)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(filepath.Join(outDir(), "results.json"), append(data, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	return code
}
