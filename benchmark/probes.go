package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
	"pmemgraph/internal/shard"
)

// probeInput is the workload's own graph and configuration, on which the
// traced run takes every per-layer metric from outside: each probe times
// calls into one layer's exported functions.
type probeInput struct {
	g       *graph.Graph // sealed: weights and transpose
	machine memsim.MachineConfig
	profile frameworks.Profile
	backend core.Backend
	params  frameworks.Params
}

// probeBatches is how many update batches the update-path probes apply.
const probeBatches = 10

// timeN calls f n times and returns each call's host seconds.
func timeN(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// fastest returns the smallest sample. The two overhead rungs are
// differences of two timings of the same kernel, and the fastest of a few
// calls is the least noisy estimate of each.
func fastest(samples []float64) float64 {
	return sortedCopy(samples)[0]
}

// put records the median of samples, scaled into the metric's unit.
func (r *run) put(name string, samples []float64, scale float64) {
	r.layer[name] = summarize(samples, scale)
}

// putRate records work per second in millions, from per-call seconds.
func (r *run) putRate(name string, work float64, secs []float64) {
	rates := make([]float64, len(secs))
	for i, s := range secs {
		rates[i] = work / s / 1e6
	}
	r.layer[name] = summarize(rates, 1)
}

// alias returns a graph sharing g's out-direction arrays but none of its
// derived state, so that BuildIn and the compressors do their work again.
func alias(g *graph.Graph) *graph.Graph {
	return &graph.Graph{OutOffsets: g.OutOffsets, OutEdges: g.OutEdges, OutWeights: g.OutWeights}
}

// sweepCursor walks every vertex's neighbours through the adjacency's
// Cursor and returns the number of edges seen.
func sweepCursor(adj graph.Adjacency) int64 {
	var edges int64
	for v := 0; v < adj.NumNodes(); v++ {
		c := adj.Cursor(graph.Node(v))
		for {
			if _, ok := c.Next(); !ok {
				break
			}
			edges++
		}
	}
	return edges
}

// runProbes takes the whole per-layer ladder on in.g. Rungs the workload
// measured itself, on its own ops, keep the workload's value.
func runProbes(r *run, in probeInput) error {
	dir, err := tempDir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	native := r.layer
	r.layer = make(map[string]measurement, len(perLayer))
	defer func() {
		for k, v := range native {
			r.layer[k] = v
		}
	}()
	g := in.g
	stream, err := gen.UpdateStream(g, probeBatches, batchSize, derive(r.cfg.seed, "probe.updates"), true)
	if err != nil {
		return err
	}
	if err := probeGraph(r, in, dir, stream); err != nil {
		return err
	}
	g.CompressOut() // the remaining probes want both encodings cached, as a registry-sealed graph has
	g.CompressIn()
	ov := graph.NewOverlay(g)
	var delta graph.Delta
	if ov, delta, err = ov.Apply(stream[0]); err != nil {
		return err
	}
	probeMemsim(r, in)
	if err := probeCoreEngine(r, in, ov); err != nil {
		return err
	}
	if err := probeAnalytics(r, in, ov, &delta); err != nil {
		return err
	}
	if err := probeShard(r, in); err != nil {
		return err
	}
	if err := probeServer(r, in, dir, stream); err != nil {
		return err
	}
	if err := probeLoadgen(r); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer["host.gc_cpu_share"] = single(ms.GCCPUFraction)
	return probeSession(r, in, dir, stream)
}

// probeGraph: construction, files, cursors and the update path.
func probeGraph(r *run, in probeInput, dir string, stream [][]graph.EdgeUpdate) error {
	g := in.g
	n := g.NumNodes()

	// FromEdges from a shuffled list, which is what a generator hands it.
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, d := range g.OutNeighbors(graph.Node(v)) {
			edges = append(edges, graph.Edge{Src: graph.Node(v), Dst: d})
		}
	}
	rnd := &splitmix{s: derive(r.cfg.seed, "probe.shuffle")}
	for i := len(edges) - 1; i > 0; i-- {
		j := int(rnd.next() % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
	var ferr error
	r.putRate("graph.from_edges_medges_s", float64(len(edges)), timeN(1, func() {
		_, ferr = graph.FromEdges(n, edges, false, false)
	}))
	if ferr != nil {
		return ferr
	}
	edges = nil

	a := alias(g)
	r.put("graph.build_in_s", timeN(1, a.BuildIn), 1)
	r.put("graph.compress_s", timeN(1, func() { a.CompressOut(); a.CompressIn() }), 1)

	path := filepath.Join(dir, "probe.csrz")
	var werr error
	r.put("graph.csrz_write_s", timeN(1, func() {
		f, err := os.Create(path)
		if err != nil {
			werr = err
			return
		}
		if werr = graph.WriteCSRZ(f, a); werr == nil {
			werr = f.Sync()
		}
		f.Close()
	}), 1)
	if werr != nil {
		return werr
	}
	r.put("graph.csrz_read_s", timeN(1, func() {
		f, err := os.Open(path)
		if err != nil {
			werr = err
			return
		}
		_, werr = graph.ReadCSRZ(f)
		f.Close()
	}), 1)
	if werr != nil {
		return werr
	}
	r.put("graph.partition_s", timeN(2, func() { _, werr = graph.NewPartition(g, shardCount) }), 1)
	if werr != nil {
		return werr
	}

	e := float64(g.NumEdges())
	r.putRate("graph.cursor_raw_medges_s", e, timeN(3, func() { sweepCursor(g.RawOut()) }))
	r.putRate("graph.cursor_compressed_medges_s", e, timeN(3, func() { sweepCursor(a.CompressOut()) }))

	ov := graph.NewOverlay(g)
	var applies, appends []float64
	var buf bytes.Buffer
	for i, b := range stream {
		t0 := time.Now()
		next, _, err := ov.Apply(b)
		applies = append(applies, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		ov = next
		t0 = time.Now()
		if err := graph.AppendLog(&buf, uint64(i+1), b); err != nil {
			return err
		}
		appends = append(appends, time.Since(t0).Seconds())
	}
	r.put("graph.overlay_apply_ms", applies, 1e3)
	r.put("graph.wal_append_us", appends, 1e6)
	r.putRate("graph.cursor_overlay_medges_s", float64(ov.NumEdges()), timeN(3, func() { sweepCursor(ov.OutAdj(false)) }))
	r.put("graph.materialize_s", timeN(1, func() { ov.Materialize() }), 1)
	return nil
}

// probeMemsim times the charging primitives on one thread of a fresh
// machine, and one deterministic microbenchmark on the simulated clock.
func probeMemsim(r *run, in probeInput) {
	m := memsim.NewMachine(in.machine)
	n := int64(in.g.NumNodes())
	arr := m.MustAlloc("probe.nodes", n, 4, memsim.AllocOpts{Policy: memsim.Interleaved})
	const calls = 1 << 16
	perCall := func(f func(t *memsim.Thread, i int64)) []float64 {
		secs := timeN(5, func() {
			m.Sequential(func(t *memsim.Thread) {
				idx := int64(12345)
				for c := 0; c < calls; c++ {
					idx = (idx*6364136223846793005 + 1442695040888963407) & (1<<62 - 1)
					f(t, idx%n)
				}
			})
		})
		for i := range secs {
			secs[i] /= calls
		}
		return secs
	}
	r.put("memsim.read_ns", perCall(func(t *memsim.Thread, i int64) { arr.Read(t, i) }), 1e9)
	r.put("memsim.random_n_ns", perCall(func(t *memsim.Thread, i int64) { arr.RandomN(t, 64, false) }), 1e9)
	r.put("memsim.read_range_ns", perCall(func(t *memsim.Thread, i int64) {
		lo := i
		if lo+4096 > n {
			lo = 0
		}
		hi := lo + 4096
		if hi > n {
			hi = n
		}
		arr.ReadRange(t, lo, hi)
	}), 1e9)
	m.Free(arr)
	r.put("memsim.region_us", timeN(200, func() { m.Parallel(threads, func(t *memsim.Thread) {}) }), 1e6)
	r.put("memsim.alloc_us", timeN(50, func() {
		m.Free(m.MustAlloc("probe.alloc", n, 4, memsim.AllocOpts{Policy: memsim.Interleaved}))
	}), 1e6)
	// The chase length follows the seed, so that the value is a function
	// of the seed like every other exact metric and not one constant.
	micro := memsim.NewMachine(in.machine).LatencyMicro(true, 1<<14+int64(r.cfg.seed%1024), 1<<22, false)
	r.layer["memsim.micro_sim_ns"] = single(micro.NsPerOp)
}

// probeCoreEngine: runtime construction, scan charging, and one EdgeMap per
// representation and direction with an operator that does nothing.
func probeCoreEngine(r *run, in probeInput, ov *graph.Overlay) error {
	g := in.g
	opts := in.profile.Options("cc", threads) // both directions, unweighted
	build := func(name string, mk func(m *memsim.Machine) (*core.Runtime, error)) error {
		var err error
		r.put(name, timeN(10, func() {
			rt, e := mk(memsim.NewMachine(in.machine))
			if e != nil {
				err = e
				return
			}
			rt.Close()
		}), 1e3)
		return err
	}
	raw, z := opts, opts
	raw.Backend, z.Backend = core.BackendRaw, core.BackendCompressed
	if err := build("core.runtime_build_ms", func(m *memsim.Machine) (*core.Runtime, error) { return core.New(m, g, raw) }); err != nil {
		return err
	}
	if err := build("core.runtime_build_compressed_ms", func(m *memsim.Machine) (*core.Runtime, error) { return core.New(m, g, z) }); err != nil {
		return err
	}
	if err := build("core.runtime_build_overlay_ms", func(m *memsim.Machine) (*core.Runtime, error) { return core.NewOverlay(m, ov, raw) }); err != nil {
		return err
	}

	opts.Backend = in.backend
	rt, err := core.New(memsim.NewMachine(in.machine), g, opts)
	if err != nil {
		return err
	}
	defer rt.Close()
	n := g.NumNodes()
	av := rt.OutView()
	scan := timeN(3, func() {
		rt.M.Sequential(func(t *memsim.Thread) {
			for v := 0; v < n; v++ {
				av.ChargeScan(t, graph.Node(v), false)
			}
		})
	})
	for i := range scan {
		scan[i] /= float64(n)
	}
	r.put("core.charge_scan_ns", scan, 1e9)

	noPush := func(u, d graph.Node, ei int64) bool { return false }
	noPull := func(v, u graph.Node, ei int64) (bool, bool) { return false, false }
	e := float64(g.NumEdges())
	sparse := engine.New(rt, engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush})
	full := sparse.FullFrontier()
	r.putRate("engine.push_sparse_medges_s", e, timeN(3, func() { sparse.EdgeMap(full, engine.EdgeMapArgs{Push: noPush}) }))
	one := sparse.NewFrontier(in.params.Source)
	r.put("engine.round_us", timeN(200, func() { sparse.EdgeMap(one, engine.EdgeMapArgs{Push: noPush}) }), 1e6)
	dense := engine.New(rt, engine.Config{Rep: engine.RepDense, Dir: engine.DirPush})
	fullDense := dense.FullFrontier()
	r.putRate("engine.push_dense_medges_s", e, timeN(3, func() { dense.EdgeMap(fullDense, engine.EdgeMapArgs{Push: noPush}) }))
	pull := engine.New(rt, engine.Config{Rep: engine.RepDense, Dir: engine.DirPull})
	if !pull.CanPull() {
		return fmt.Errorf("probe runtime has no transpose")
	}
	fullPull := pull.FullFrontier()
	r.putRate("engine.pull_medges_s", e, timeN(3, func() { pull.EdgeMap(fullPull, engine.EdgeMapArgs{Pull: noPull}) }))
	r.putRate("engine.vertexmap_mverts_s", float64(n), timeN(5, func() {
		dense.VertexMap(engine.VertexMapArgs{Fn: func(v graph.Node) {}})
	}))
	return nil
}

// probeApps is every kernel the analytics rungs name.
var probeApps = []string{"bfs", "cc", "sssp", "bc", "kcore", "pr"}

// probeAnalytics runs each kernel once in the workload's configuration,
// the incremental kernels against one applied batch, and the dispatch and
// marshal costs around them.
func probeAnalytics(r *run, in probeInput, ov *graph.Overlay, delta *graph.Delta) error {
	g := in.g
	optsFor := func(app string) core.Options {
		o := in.profile.Options(app, threads)
		o.Backend = in.backend
		return o
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var tracedNs, tracedEdges float64
	rounds := 0
	var bfs *analytics.Result
	for _, app := range probeApps {
		var res *analytics.Result
		var err error
		secs := timeN(1, func() {
			res, err = in.profile.RunOnOpts(memsim.NewMachine(in.machine), g, app, optsFor(app), in.params)
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", app, err)
		}
		r.put("analytics."+app+"_s", secs, 1)
		rounds += res.Rounds
		if len(res.Trace) > 0 {
			tracedNs += secs[0] * 1e9
			for _, rs := range res.Trace {
				tracedEdges += float64(rs.Edges)
			}
		}
		if app == "bfs" {
			bfs = res
		}
	}
	runtime.ReadMemStats(&after)
	ops := float64(len(probeApps))
	r.layer["host.alloc_mb_per_op"] = single(float64(after.TotalAlloc-before.TotalAlloc) / ops / (1 << 20))
	r.layer["host.allocs_per_op"] = single(float64(after.Mallocs-before.Mallocs) / ops)
	r.layer["analytics.rounds"] = single(float64(rounds))
	if tracedEdges > 0 {
		r.layer["analytics.ns_per_traced_edge"] = single(tracedNs / tracedEdges)
	}

	var body []byte
	var merr error
	r.put("analytics.marshal_ms", timeN(5, func() { body, merr = analytics.MarshalResult(bfs) }), 1e3)
	if merr != nil {
		return merr
	}
	r.layer["analytics.result_kb"] = single(float64(len(body)) / 1024)

	// Incremental kernels: seed on the base epoch, resume on the epoch one
	// batch later (the batch has deletes, so cc takes its documented
	// fallback, exactly as it does under update_stream).
	ovParams := frameworks.DefaultParamsOverlay(ov)
	for _, app := range []string{"cc", "pr"} {
		_, seed, err := in.profile.RunIncrementalOnOpts(memsim.NewMachine(in.machine), g, app, optsFor(app), in.params, nil, nil)
		if err != nil {
			return fmt.Errorf("probe seed %s: %w", app, err)
		}
		secs := timeN(1, func() {
			_, _, err = in.profile.RunIncrementalOverlayOnOpts(memsim.NewMachine(in.machine), ov, app, optsFor(app), ovParams, seed, delta)
		})
		if err != nil {
			return fmt.Errorf("probe incremental %s: %w", app, err)
		}
		r.put("analytics.inc_"+app+"_s", secs, 1)
	}

	// Dispatch: RunOnOpts against the three calls it makes.
	opts := optsFor("bfs")
	var derr error
	whole := timeN(7, func() {
		_, derr = in.profile.RunOnOpts(memsim.NewMachine(in.machine), g, "bfs", opts, in.params)
	})
	parts := timeN(7, func() {
		rt, err := core.New(memsim.NewMachine(in.machine), g, opts)
		if err != nil {
			derr = err
			return
		}
		_, derr = in.profile.Run(rt, "bfs", in.params)
		rt.Close()
	})
	if derr != nil {
		return derr
	}
	r.layer["frameworks.dispatch_us"] = single((fastest(whole) - fastest(parts)) * 1e6)
	dp := timeN(5, func() { frameworks.DefaultParams(g) })
	dp = append(dp, timeN(5, func() { frameworks.DefaultParamsOverlay(ov) })...)
	r.put("frameworks.default_params_ms", dp, 1e3)
	return nil
}

// probeShard runs the four sharded kernels on one engine.
func probeShard(r *run, in probeInput) error {
	part, err := graph.NewPartition(in.g, shardCount)
	if err != nil {
		return err
	}
	cfg := shard.ServingConfig(in.machine, shardThreads, in.backend)
	var e *shard.Engine
	r.put("shard.new_ms", timeN(3, func() {
		if e != nil {
			e.Close()
		}
		e, err = shard.New(part, cfg)
	}), 1e3)
	if err != nil {
		return err
	}
	defer e.Close()
	var host, wall, comm float64
	var sent int64
	rounds := 0
	perShard := make([]float64, shardCount)
	for _, app := range []string{"bfs", "sssp", "cc", "pr"} {
		secs := timeN(1, func() { shardedApp(e, app, in.params) })
		r.put("shard."+app+"_s", secs, 1)
		host += secs[0]
		wall += e.WallSeconds()
		comm += e.CommSeconds()
		sent += e.BytesSent()
		rounds += e.Rounds()
		for i, s := range e.PerShardSeconds() {
			perShard[i] += s
		}
	}
	r.layer["shard.superstep_us"] = single(host / float64(rounds) * 1e6)
	r.layer["shard.cross_mb"] = single(float64(sent) / 1e6)
	r.layer["shard.comm_share"] = single(comm / wall)
	maxS := 0.0
	for _, s := range perShard {
		if s > maxS {
			maxS = s
		}
	}
	r.layer["shard.imbalance"] = single(maxS / (sum(perShard) / shardCount))
	return nil
}

// probeServer drives an in-process server.New: the cache-hit path, the
// fixed cost of a miss, loading, and the update, checkpoint and recovery
// paths with and without a data dir.
func probeServer(r *run, in probeInput, dir string, stream [][]graph.EdgeUpdate) error {
	g := in.g
	srv := server.New(server.Config{Machine: in.machine, Workers: runtime.NumCPU()})
	if _, err := srv.Registry().Add("g", "direct", g); err != nil {
		srv.Close()
		return err
	}
	submit := func(req server.JobRequest) error {
		job, err := srv.Submit(req)
		if err != nil {
			return err
		}
		<-job.Done()
		if _, _, msg, _ := job.Result(); msg != "" {
			return fmt.Errorf("job failed: %s", msg)
		}
		return nil
	}
	var serr error
	hit := server.JobRequest{Graph: "g", App: "bfs"}
	if err := submit(hit); err != nil {
		srv.Close()
		return err
	}
	r.put("server.submit_hit_us", timeN(50, func() {
		if err := submit(hit); err != nil {
			serr = err
		}
	}), 1e6)
	miss := hit
	miss.NoCache = true
	jobS := timeN(5, func() {
		if err := submit(miss); err != nil {
			serr = err
		}
	})
	srv.Close()
	if serr != nil {
		return serr
	}
	opts := frameworks.Galois.Options("bfs", in.machine.MaxThreads())
	params := frameworks.DefaultParams(g)
	direct := timeN(5, func() {
		res, err := frameworks.Galois.RunOnOpts(memsim.NewMachine(in.machine), g, "bfs", opts, params)
		if err == nil {
			_, err = analytics.MarshalResult(res)
		}
		if err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	r.layer["server.miss_overhead_ms"] = single((fastest(jobS) - fastest(direct)) * 1e3)

	csr := filepath.Join(dir, "probe.csr")
	if err := writeCSRFile(csr, g); err != nil {
		return err
	}
	r.put("server.load_csr_s", timeN(1, func() { _, serr = server.NewRegistry().LoadCSRFile("g", csr) }), 1)
	if serr != nil {
		return serr
	}

	// Update path: the first batches time ApplyUpdates, the rest make the
	// WAL non-empty again after the checkpoint so that recovery replays.
	head, tail := stream[:probeBatches-2], stream[probeBatches-2:]
	apply := func(reg *server.Registry, batches [][]graph.EdgeUpdate) ([]float64, error) {
		var secs []float64
		for _, b := range batches {
			t0 := time.Now()
			if _, err := reg.ApplyUpdates("g", b); err != nil {
				return nil, err
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		return secs, nil
	}
	mem := server.NewRegistry()
	if _, err := mem.Add("g", "direct", g); err != nil {
		return err
	}
	secs, err := apply(mem, head)
	mem.Quiesce()
	if err != nil {
		return err
	}
	r.put("server.apply_updates_ms", secs, 1e3)

	data := filepath.Join(dir, "inproc-data")
	durable := server.New(server.Config{Machine: in.machine, DataDir: data})
	if _, err := durable.Registry().Add("g", "direct", g); err != nil {
		durable.Close()
		return err
	}
	secs, err = apply(durable.Registry(), head)
	if err != nil {
		durable.Close()
		return err
	}
	r.put("server.apply_updates_durable_ms", secs, 1e3)
	r.put("server.checkpoint_s", timeN(1, func() {
		// A background compaction may have won the race; either way the
		// epoch ends up checkpointed, and a conflict is not an error here.
		_, _ = durable.Registry().Checkpoint("g")
	}), 1)
	_, err = apply(durable.Registry(), tail)
	durable.Close()
	if err != nil {
		return err
	}
	again := server.New(server.Config{Machine: in.machine, DataDir: data})
	r.put("server.recover_inproc_s", timeN(1, func() { _, serr = again.Recover() }), 1)
	again.Close()
	return serr
}

// probeLoadgen times generating the serving trace.
func probeLoadgen(r *run) error {
	var tr *traceEvents
	var err error
	r.put("loadgen.generate_ms", timeN(3, func() { tr, err = generateTrace(r.cfg.seed, traceEventsFor(r.cfg.seconds)) }), 1e3)
	if err != nil {
		return err
	}
	r.layer["loadgen.events"] = single(float64(len(tr.events)))
	return nil
}
