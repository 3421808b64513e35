package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Options configures a harness run.
type Options struct {
	// Scale selects input/machine scale (gen.ScaleFull for the paper
	// harness, gen.ScaleSmall for quick runs: `pmembench -quick`, the tests).
	Scale gen.Scale
	// Quick trims sweeps (fewer apps/thread counts) for CI-speed runs.
	Quick bool
	// Out receives the formatted experiment output.
	Out io.Writer
	// Sink, when non-nil, collects machine-readable Records alongside the
	// table output: one wall-time record per experiment from Run, plus one
	// simulated-time record per kernel execution from the figure runners.
	Sink *Sink
	// TraceOut, when non-empty, makes figServe write its generated workload
	// trace (the replay input, versioned loadgen JSON) to this path so the
	// exact run can be replayed or inspected.
	TraceOut string

	// current is the experiment name Run is executing, stamped onto
	// records emitted by runners.
	current string
}

// record forwards a row to the sink (if any), stamping the experiment name.
func (o Options) record(r Record) {
	if o.Sink == nil {
		return
	}
	r.Experiment = o.current
	o.Sink.Add(r)
}

// Record is one machine-readable harness result: an experiment's wall time,
// or one kernel execution's simulated time within a figure.
type Record struct {
	Experiment string `json:"experiment"`
	Graph      string `json:"graph,omitempty"`
	App        string `json:"app,omitempty"`
	Algorithm  string `json:"algorithm,omitempty"`
	Framework  string `json:"framework,omitempty"`
	// Machine names the simulated platform for experiments that sweep
	// machines (figCompress, figStream); Backend the CSR storage backend
	// (raw/compressed) and BytesRead the simulated bytes read from the
	// graph's adjacency arrays, the figCompress comparison metric; Batch
	// the update-batch size of a figStream row (the incremental and full
	// variants of one batch share it and differ in Algorithm).
	Machine     string  `json:"machine,omitempty"`
	Backend     string  `json:"backend,omitempty"`
	BytesRead   uint64  `json:"bytes_read,omitempty"`
	Batch       int     `json:"batch,omitempty"`
	Threads     int     `json:"threads,omitempty"`
	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// figServe fields: one record per (scheduling mode, offered load,
	// class). Mode is the scheduler shape (fifo/priority), Class the
	// workload class the row aggregates, OfferedRPS the open-loop arrival
	// rate, Events the class's arrivals in the trace. Completed/Rejected/
	// Shed partition the class's outcomes; DeadlineMissed counts jobs that
	// blew their SLO (completed late, shed, or rejected). The latency
	// percentiles are wall milliseconds from intended arrival to terminal
	// state, and GoodputRPS is within-SLO completions per wall second.
	Mode           string  `json:"mode,omitempty"`
	Class          string  `json:"class,omitempty"`
	OfferedRPS     float64 `json:"offered_rps,omitempty"`
	Events         int     `json:"events,omitempty"`
	Completed      uint64  `json:"completed,omitempty"`
	Rejected       uint64  `json:"rejected,omitempty"`
	Shed           uint64  `json:"shed,omitempty"`
	DeadlineMissed uint64  `json:"deadline_missed,omitempty"`
	P50Ms          float64 `json:"p50_ms,omitempty"`
	P99Ms          float64 `json:"p99_ms,omitempty"`
	P999Ms         float64 `json:"p999_ms,omitempty"`
	GoodputRPS     float64 `json:"goodput_rps,omitempty"`
	// figShard fields: one record per (app, shard count). Shards is the
	// BSP fan-out width, CrossBytes the cross-shard frontier bytes shipped
	// over the whole run, CommSeconds the simulated exchange time folded
	// into SimSeconds, Speedup the sim-time ratio vs the same app at
	// shards=1, and PerShardSeconds each shard machine's own wall clock
	// (compute plus the barriers it waited in).
	Shards          int       `json:"shards,omitempty"`
	CrossBytes      int64     `json:"cross_shard_bytes,omitempty"`
	CommSeconds     float64   `json:"comm_seconds,omitempty"`
	Speedup         float64   `json:"speedup_vs_one_shard,omitempty"`
	PerShardSeconds []float64 `json:"per_shard_seconds,omitempty"`
}

// Sink is a concurrency-safe Record collector backing BENCH_figures.json.
type Sink struct {
	mu      sync.Mutex
	records []Record
}

// Add appends one record.
func (s *Sink) Add(r Record) {
	s.mu.Lock()
	s.records = append(s.records, r)
	s.mu.Unlock()
}

// Records returns a copy of everything collected so far.
func (s *Sink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.records...)
}

// WriteJSON writes the collected records to path as an indented JSON array
// (the BENCH_figures.json format tracking the perf trajectory per PR). The
// write is atomic — a temp file in the target directory renamed over path —
// so an interrupted or failed run never leaves a truncated results file for
// CI artifact upload or trend tooling to misread.
func (s *Sink) WriteJSON(path string) error {
	if path == "" {
		return fmt.Errorf("bench: empty results path")
	}
	data, err := json.MarshalIndent(s.Records(), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling records: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".bench-json-*")
	if err != nil {
		return fmt.Errorf("bench: creating temp results file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("bench: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("bench: setting results mode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("bench: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("bench: publishing results: %w", err)
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Options) error

var registry = map[string]struct {
	title string
	run   Runner
}{
	"table1": {"Table 1: Optane PMM bandwidth (GB/s)", Table1},
	"table2": {"Table 2: Optane PMM latency (ns)", Table2},
	"table3": {"Table 3: inputs and their key properties", Table3},
	"fig4a":  {"Figure 4a: NUMA-local write microbenchmark", Figure4a},
	"fig4b":  {"Figure 4b: interleaved vs blocked, 320GB", Figure4b},
	"fig5":   {"Figure 5: page size x NUMA migration (bfs)", Figure5},
	"fig6":   {"Figure 6: kernel/user breakdown (bfs)", Figure6},
	"fig7":   {"Figure 7: data-driven algorithms on Optane PMM", Figure7},
	"fig8":   {"Figure 8: data-driven algorithms on Entropy (DRAM)", Figure8},
	"fig9":   {"Figure 9: frameworks on Optane PMM", Figure9},
	"fig10":  {"Figure 10: strong scaling, DRAM vs Optane PMM", Figure10},
	"table4": {"Table 4: Optane PMM vs Stampede cluster (DM)", Table4},
	"fig11":  {"Figure 11: cluster/Optane configurations", Figure11},
	"table5": {"Table 5: GridGraph app-direct vs Galois memory mode", Table5},
	"figCompress": {"Compressed vs raw CSR backend: traffic and time across tiers",
		FigCompress},
	"figStream": {"Streaming updates: incremental vs full recomputation by batch size",
		FigStream},
	"figSeal": {"Epoch sealing: delta-overlay apply vs full CSR rebuild by batch size",
		FigSeal},
	"figServe": {"Serving under load: per-class tail latency and goodput vs offered load",
		FigServe},
	"figShard": {"Sharded BSP execution: sim-time, cross-shard traffic and speedup vs shard count",
		FigShard},
}

// Experiments returns the registered experiment names in run order.
func Experiments() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return orderKey(names[i]) < orderKey(names[j]) })
	return names
}

func orderKey(name string) string {
	// tables and figures interleave in paper order
	order := map[string]int{
		"table1": 1, "table2": 2, "table3": 3, "fig4a": 4, "fig4b": 5,
		"fig5": 6, "fig6": 7, "fig7": 8, "fig8": 9, "fig9": 10,
		"fig10": 11, "table4": 12, "fig11": 13, "table5": 14,
		"figCompress": 15, "figStream": 16, "figSeal": 17, "figServe": 18,
		"figShard": 19,
	}
	return fmt.Sprintf("%02d", order[name])
}

// Run executes the named experiment.
func Run(name string, opt Options) error {
	entry, ok := registry[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
	}
	if opt.Scale == 0 {
		opt.Scale = gen.ScaleSmall
	}
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	opt.current = name
	fmt.Fprintf(opt.Out, "=== %s ===\n", entry.title)
	start := time.Now()
	err := entry.run(opt)
	if err == nil {
		opt.record(Record{WallSeconds: time.Since(start).Seconds()})
	}
	return err
}

// Title returns the human title of an experiment.
func Title(name string) string { return registry[name].title }

// --- shared input cache ---

var inputCache sync.Map // key string -> *graph.Graph

// input returns the scaled stand-in for a paper input, sealed
// (frameworks.Seal) when it is generated and cached per process. Runs only
// read it, so an experiment's numbers do not depend on which experiments
// ran earlier in the process.
func input(name string, scale gen.Scale) (*graph.Graph, gen.PaperRow) {
	key := fmt.Sprintf("%s@%d", name, scale)
	if v, ok := inputCache.Load(key); ok {
		g := v.(*graph.Graph)
		row, _ := gen.PaperInput(name)
		return g, row
	}
	g, row := gen.MustInput(name, scale)
	frameworks.Seal(g)
	inputCache.Store(key, g)
	return g, row
}

// machines for the current scale.
func optaneMachine(scale gen.Scale) memsim.MachineConfig {
	return memsim.Scaled(memsim.OptaneMachine(), scale.Div())
}

func dramMachine(scale gen.Scale) memsim.MachineConfig {
	return memsim.Scaled(memsim.DRAMMachine(), scale.Div())
}

func entropyMachine(scale gen.Scale) memsim.MachineConfig {
	return memsim.Scaled(memsim.EntropyMachine(), scale.Div())
}

// table returns a tabwriter over the experiment output.
func table(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}
