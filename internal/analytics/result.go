// Package analytics implements the paper's seven benchmarks — betweenness
// centrality (bc), breadth-first search (bfs), connected components (cc),
// k-core decomposition (kcore), pagerank (pr), single-source shortest paths
// (sssp) and triangle counting (tc) — in the algorithmic variants §5
// compares:
//
//	bfs:  dense-worklist BSP, direction-optimizing, sparse-worklist push
//	cc:   dense label propagation (vertex program), label propagation with
//	      shortcutting (non-vertex, Galois), union-find pointer jumping
//	sssp: data-driven Bellman-Ford with dense worklists, delta-stepping
//	      over sparse priority buckets
//
// The round-based kernels (bfs, cc label propagation, bc, kcore, Bellman-
// Ford, pr) are all points in the configuration space of one operator
// engine (internal/engine): the §5 variants above are engine.Configs, not
// separate implementations. Only delta-stepping (which schedules over
// priority buckets, outside graph-wide rounds) and tc (a one-shot DAG
// intersection) run outside it. A run picks a §5 variant in
// frameworks.Plan.Variant, by the name Figure 7 prints ("dense-wl",
// "sparse-wl", "dir-opt", "labelprop-sc", "delta-step"); this package
// exports the kernels, not one wrapper per variant.
//
// Every kernel computes its answer natively (validated against reference
// implementations in tests) while charging its memory-access stream to the
// runtime's simulated machine; reported times are simulated seconds.
// Traversal traffic is charged by the engine (or, for the asynchronous
// kernels, through core.Runtime's scan helpers); kernels charge only the
// label-array accesses they declare. Kernel Results — outputs, round
// trajectories, simulated times and counters — are byte-identical at any
// GOMAXPROCS (TestResultsByteIdenticalAcrossGOMAXPROCS) and across the
// raw and compressed storage backends for everything but the charging.
//
// The streaming-update path adds incremental variants (incremental.go):
// CCIncremental and PageRankIncremental resume from a prior epoch's
// artifacts and produce outputs bitwise identical to a from-scratch run
// on the post-update graph, charging only the delta-forced work.
package analytics

import (
	"math"

	"pmemgraph/internal/engine"
	"pmemgraph/internal/memsim"
)

// Infinity is the unreached distance marker.
const Infinity = math.MaxUint32

// Result reports one kernel execution. The json tags define the stable
// wire format MarshalResult emits (the serving layer's result bytes and
// cache values); do not rename them without a format version bump.
type Result struct {
	// App is the benchmark name (bc, bfs, ...); Algorithm the variant
	// (sparse-wl, dense-wl, dir-opt, delta-step, labelprop-sc, ...).
	App       string `json:"app"`
	Algorithm string `json:"algorithm"`

	// Seconds is the simulated wall-clock duration of the kernel.
	Seconds float64 `json:"seconds"`
	// Rounds is the number of bulk-synchronous rounds (or scheduler
	// epochs for asynchronous kernels).
	Rounds int `json:"rounds"`
	// Counters are the simulated hardware events attributed to the run.
	Counters memsim.Counters `json:"counters"`

	// TimedOut marks a run that exceeded its execution budget (the
	// paper's 2-hour limit for the out-of-core experiments, Table 5).
	TimedOut bool `json:"timed_out,omitempty"`

	// Trace is the engine's per-round record (frontier size, edge count,
	// representation, direction, region stats) for kernels built on the
	// operator engine; nil for asynchronous kernels (delta-stepping) and
	// tc. It backs frontier-threshold sweeps and the §5 round accounting.
	Trace []engine.RoundStat `json:"trace,omitempty"`

	// Outputs (only the fields relevant to the app are set).
	Dist       []uint32  `json:"dist,omitempty"`       // bfs levels / sssp distances
	Labels     []uint32  `json:"labels,omitempty"`     // cc component labels
	Rank       []float64 `json:"rank,omitempty"`       // pr
	Centrality []float64 `json:"centrality,omitempty"` // bc dependency scores
	InCore     []bool    `json:"in_core,omitempty"`    // kcore membership
	Triangles  uint64    `json:"triangles,omitempty"`  // tc
}

// window captures simulated time and counters around a kernel execution.
type window struct {
	m     *memsim.Machine
	ns    float64
	start memsim.Counters
}

func startWindow(m *memsim.Machine) window {
	return window{m: m, ns: m.WallNs(), start: m.Counters()}
}

func (w window) finish(res *Result) *Result {
	res.Seconds = (w.m.WallNs() - w.ns) / 1e9
	res.Counters = w.m.Counters().Sub(w.start)
	return res
}
