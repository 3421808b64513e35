package main

// This file is the naming authority: the five workloads, the end-to-end
// metrics, and the per-layer ladder with the end-to-end metric each rung
// should move. BENCHMARK.json repeats the names, units, directions and
// bounds; TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// Workload names.
const (
	wCrawl  = "crawl_sparse"
	wPower  = "power_dense"
	wShard  = "shard_bsp"
	wServe  = "serve_mixed"
	wUpdate = "update_stream"
)

var workloads = []workloadSpec{
	{wCrawl, "high-diameter crawl, Galois on raw CSR: ~260 rounds of small sparse frontiers, so per-round cost in memsim/engine does the work"},
	{wPower, "power-law RMAT, GBBS on compressed CSR: few dense/pull rounds, so varint decode and bulk range charging do the work"},
	{wShard, "the same RMAT shape over 4 in-process shards: claim collapse, merge and coordinator apply in internal/shard do the work"},
	{wServe, "a real pmemserved child under a three-cohort loadgen trace: per-job runtime build, marshal, cache and HTTP dominate small kernels"},
	{wUpdate, "update batches beside reader jobs on one durable graph, then kill and recover: overlay fold, WAL fsync, compaction, replay"},
}

// move names one end-to-end metric on one workload that a per-layer metric
// is predicted to move.
type move struct {
	Metric   string
	Workload string
}

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before -compare (and the PR driver) calls it a
	// regression. Per-layer metrics have none.
	Bound float64
	// Exact marks values that are a pure function of the seed: simulated
	// time and deterministic counts. -compare demands equality on them.
	Exact bool
	// On lists the workloads a full run reports the metric for; nil means
	// all five.
	On []string
	// Moves is the prediction written down before measuring (per-layer
	// metrics only).
	Moves []move
}

// endToEnd are the metrics every workload reports in an untraced run, the
// ones BENCHMARK.json lists under end_to_end. Each is defined once and
// specialises per workload (see README.md, "End-to-end metrics"). The
// bounds are three times the largest seed-to-seed spread measured on any
// workload (README.md, "Bounds"), and never below the spread the PR driver
// tolerates.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// demoted are the end-to-end metrics BENCHMARK.json carries in per_layer,
// because its end_to_end list is held to a rule they cannot meet: every
// workload reports every metric, and ten runs on ten seeds stay within the
// metric's bound. sim_seconds repeats exactly for one seed but is bimodal
// across seeds (cc on the crawl simulates 7.5 s on four seeds in five and
// 11.3 s on the fifth); open-loop latency on two shared cores does not
// repeat within a tenth; the rest exist on update_stream alone. A full run
// still reports all of them as end-to-end metrics on the workloads listed,
// and -compare holds them to these bounds (equality for sim_seconds),
// calling them unresolved where their own quartiles are wider. The traced
// run measures them on each workload's own graph.
var demoted = []metricSpec{
	{Name: "sim_seconds", Unit: "sim_s", Better: "lower", Exact: true,
		Moves: mv("pass_s", wCrawl, "pass_s", wPower, "pass_s", wShard)},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wServe},
		Moves: mv("jobs_per_s", wServe)},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wServe},
		Moves: mv("jobs_per_s", wServe)},
	{Name: "update_edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.15, On: []string{wUpdate},
		Moves: mv("pass_s", wUpdate)},
	{Name: "update_batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: []string{wUpdate},
		Moves: mv("pass_s", wUpdate)},
	{Name: "update_batch_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: []string{wUpdate},
		Moves: mv("pass_s", wUpdate)},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, On: []string{wUpdate},
		Moves: mv("setup_s", wUpdate)},
}

// failedShare is reported by full runs only: the contract output carries
// attempted and failed as counts, and a metric that is always 0 cannot
// hold a relative bound.
var failedShare = metricSpec{Name: "failed_share", Unit: "ratio", Better: "lower", Exact: true}

func mv(pairs ...string) []move {
	out := make([]move, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, move{pairs[i], pairs[i+1]})
	}
	return out
}

// perLayer is the ladder: module names are the layers. All are taken in
// the traced run on the workload's own graph by timing the exported call
// named in README.md.
var perLayer = []metricSpec{
	// gen
	{Name: "gen.build_s", Unit: "s", Better: "lower", Moves: mv("setup_s", wCrawl, "setup_s", wPower)},
	// graph: construction and files
	{Name: "graph.from_edges_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("setup_s", wCrawl, "recover_s", wUpdate)},
	{Name: "graph.build_in_s", Unit: "s", Better: "lower", Moves: mv("setup_s", wCrawl, "setup_s", wServe)},
	{Name: "graph.compress_s", Unit: "s", Better: "lower", Moves: mv("setup_s", wPower, "setup_s", wServe)},
	{Name: "graph.csrz_write_s", Unit: "s", Better: "lower", Moves: mv("update_batch_p95_ms", wUpdate)},
	{Name: "graph.csrz_read_s", Unit: "s", Better: "lower", Moves: mv("recover_s", wUpdate)},
	{Name: "graph.partition_s", Unit: "s", Better: "lower", Moves: mv("setup_s", wShard)},
	// graph: adjacency iteration
	{Name: "graph.cursor_raw_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("pass_s", wCrawl)},
	{Name: "graph.cursor_compressed_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("pass_s", wPower)},
	{Name: "graph.cursor_overlay_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("jobs_per_s", wUpdate)},
	// graph: update path
	{Name: "graph.overlay_apply_ms", Unit: "ms", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate, "pass_s", wUpdate)},
	{Name: "graph.wal_append_us", Unit: "us", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate)},
	{Name: "graph.materialize_s", Unit: "s", Better: "lower", Moves: mv("update_batch_p95_ms", wUpdate)},
	// memsim
	{Name: "memsim.read_ns", Unit: "ns", Better: "lower", Moves: mv("pass_s", wCrawl)},
	{Name: "memsim.random_n_ns", Unit: "ns", Better: "lower", Moves: mv("pass_s", wCrawl)},
	{Name: "memsim.read_range_ns", Unit: "ns", Better: "lower", Moves: mv("pass_s", wPower)},
	{Name: "memsim.region_us", Unit: "us", Better: "lower", Moves: mv("pass_s", wCrawl)},
	{Name: "memsim.alloc_us", Unit: "us", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "memsim.micro_sim_ns", Unit: "sim_ns", Better: "lower", Exact: true, Moves: mv("sim_seconds", wCrawl, "sim_seconds", wPower, "sim_seconds", wShard)},
	// core
	{Name: "core.runtime_build_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe, "jobs_per_s", wServe)},
	{Name: "core.runtime_build_compressed_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "core.runtime_build_overlay_ms", Unit: "ms", Better: "lower", Moves: mv("jobs_per_s", wUpdate)},
	{Name: "core.charge_scan_ns", Unit: "ns", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower)},
	// engine
	{Name: "engine.push_sparse_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("pass_s", wCrawl)},
	{Name: "engine.push_dense_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("pass_s", wPower)},
	{Name: "engine.pull_medges_s", Unit: "Medges/s", Better: "higher", Moves: mv("pass_s", wPower)},
	{Name: "engine.round_us", Unit: "us", Better: "lower", Moves: mv("pass_s", wCrawl)},
	{Name: "engine.vertexmap_mverts_s", Unit: "Mverts/s", Better: "higher", Moves: mv("pass_s", wPower)},
	// analytics
	{Name: "analytics.bfs_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower, "latency_p50_ms", wServe)},
	{Name: "analytics.cc_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower)},
	{Name: "analytics.sssp_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower)},
	{Name: "analytics.bc_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower)},
	{Name: "analytics.kcore_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wCrawl)},
	{Name: "analytics.pr_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wPower)},
	{Name: "analytics.ns_per_traced_edge", Unit: "ns", Better: "lower", Moves: mv("pass_s", wCrawl, "pass_s", wPower)},
	{Name: "analytics.rounds", Unit: "count", Better: "lower", Exact: true, Moves: mv("sim_seconds", wCrawl, "sim_seconds", wPower)},
	{Name: "analytics.marshal_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "analytics.result_kb", Unit: "KB", Better: "lower", Exact: true, Moves: mv("latency_p50_ms", wServe)},
	{Name: "analytics.inc_cc_s", Unit: "s", Better: "lower", Moves: mv("jobs_per_s", wUpdate)},
	{Name: "analytics.inc_pr_s", Unit: "s", Better: "lower", Moves: mv("jobs_per_s", wUpdate)},
	// frameworks
	{Name: "frameworks.dispatch_us", Unit: "us", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "frameworks.default_params_ms", Unit: "ms", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate)},
	// shard
	{Name: "shard.new_ms", Unit: "ms", Better: "lower", Moves: mv("pass_s", wShard, "latency_p95_ms", wServe)},
	{Name: "shard.bfs_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wShard, "latency_p95_ms", wServe)},
	{Name: "shard.sssp_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wShard)},
	{Name: "shard.cc_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wShard, "latency_p95_ms", wServe)},
	{Name: "shard.pr_s", Unit: "s", Better: "lower", Moves: mv("pass_s", wShard)},
	{Name: "shard.superstep_us", Unit: "us", Better: "lower", Moves: mv("pass_s", wShard)},
	{Name: "shard.cross_mb", Unit: "MB", Better: "lower", Exact: true, Moves: mv("sim_seconds", wShard)},
	{Name: "shard.comm_share", Unit: "ratio", Better: "lower", Exact: true, Moves: mv("sim_seconds", wShard)},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower", Exact: true, Moves: mv("sim_seconds", wShard)},
	// server, in process
	{Name: "server.submit_hit_us", Unit: "us", Better: "lower", Moves: mv("jobs_per_s", wServe, "latency_p50_ms", wServe)},
	{Name: "server.miss_overhead_ms", Unit: "ms", Better: "lower", Moves: mv("jobs_per_s", wServe, "latency_p50_ms", wServe)},
	{Name: "server.load_csr_s", Unit: "s", Better: "lower", Moves: mv("setup_s", wServe, "setup_s", wUpdate)},
	{Name: "server.apply_updates_ms", Unit: "ms", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate, "pass_s", wUpdate)},
	{Name: "server.apply_updates_durable_ms", Unit: "ms", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate, "pass_s", wUpdate)},
	{Name: "server.checkpoint_s", Unit: "s", Better: "lower", Moves: mv("update_batch_p95_ms", wUpdate)},
	{Name: "server.recover_inproc_s", Unit: "s", Better: "lower", Moves: mv("recover_s", wUpdate)},
	// server, from the child's /v1/jobs and /v1/stats
	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "server.queue_wait_p95_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p95_ms", wServe)},
	{Name: "server.service_p50_ms", Unit: "ms", Better: "lower", Moves: mv("jobs_per_s", wServe, "latency_p50_ms", wServe)},
	{Name: "server.service_p95_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p95_ms", wServe)},
	{Name: "server.cache_hit_share", Unit: "ratio", Better: "higher", Moves: mv("jobs_per_s", wServe)},
	{Name: "server.kernel_executions", Unit: "count", Better: "lower", Moves: mv("jobs_per_s", wServe)},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: mv("latency_p95_ms", wServe)},
	{Name: "server.shed", Unit: "count", Better: "lower", Moves: mv("latency_p95_ms", wServe)},
	// http
	{Name: "http.hit_roundtrip_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "http.body_mb_per_job", Unit: "MB", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	{Name: "http.update_overhead_ms", Unit: "ms", Better: "lower", Moves: mv("update_batch_p50_ms", wUpdate)},
	{Name: "http.errors", Unit: "count", Better: "lower", Moves: mv("latency_p95_ms", wServe)},
	// loadgen
	{Name: "loadgen.generate_ms", Unit: "ms", Better: "lower", Moves: mv("setup_s", wServe)},
	{Name: "loadgen.events", Unit: "count", Better: "higher", Exact: true, Moves: mv("pass_s", wServe)},
	{Name: "loadgen.lag_p95_ms", Unit: "ms", Better: "lower", Moves: mv("latency_p50_ms", wServe)},
	// host
	{Name: "host.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: mv("peak_rss_mb", wCrawl, "peak_rss_mb", wServe)},
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower", Moves: mv("pass_s", wCrawl, "jobs_per_s", wServe)},
	{Name: "host.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: mv("pass_s", wPower, "jobs_per_s", wServe)},
	{Name: "host.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: mv("pass_s", wCrawl)},
}

// contractPerLayer is what BENCHMARK.json lists under per_layer: the ladder
// plus the demoted end-to-end metrics.
func contractPerLayer() []metricSpec {
	return append(append([]metricSpec(nil), perLayer...), demoted...)
}

// fullEndToEnd is what a full run prints per workload: the twelve metrics
// of the issue, each on the workloads listed for it.
func fullEndToEnd() []metricSpec {
	out := append(append([]metricSpec(nil), endToEnd...), demoted...)
	return append(out, failedShare)
}

func findSpec(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Sizes. The graph shapes are the issue's and are never cut; pass and
// sample counts follow -seconds.
const (
	threads      = 96 // virtual threads of every unsharded run
	shardCount   = 4
	shardThreads = 24
	crawlDiv     = 8  // memsim.Scaled divisor, clueweb12 ScaleFull shape
	smallDiv     = 32 // rmat32 / kron ScaleSmall shapes; also pmemserved's default machine

	batchSize = 512 // edge updates per batch

	// serveClosedPerSecond and updateBatchesPerSecond turn -seconds into a
	// fixed amount of work, so that the same -seconds replays the same
	// events: phase A replays this many trace events per second of budget
	// (plus a tenth more as warm-up) and the writer posts this many
	// batches.
	serveClosedPerSecond   = 16
	updateBatchesPerSecond = 10

	// serveOpenRate is the frozen phase-B arrival rate in jobs per second,
	// calibrated once to about half of phase A's jobs_per_s at the commit
	// that added the benchmark (see README.md, "Open and closed loops").
	serveOpenRate = 11.0
	// serveOpenShare is the share of -seconds phase B paces arrivals for;
	// phase A, two child starts and the untimed checks need the rest of
	// the run's wall-time budget.
	serveOpenShare = 0.8

	restarts = 5 // kill/recover cycles of update_stream
)
