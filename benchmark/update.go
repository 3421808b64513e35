package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
)

const updateGraph = "kron"

// tailBatches are posted after the background compactor has settled, so
// that the daemon is killed with a known, non-empty WAL: recovery then has a
// snapshot to load and records to replay, the same ones on every run.
const tailBatches = 4

// updateInput is update_stream's set-up product.
type updateInput struct {
	g       *graph.Graph
	dataDir string
	d       *daemon
	stream  [][]graph.EdgeUpdate
}

func updateSetup(seed uint64, sz sizes, dir string, batches, rep int) (in *updateInput, total, genS float64, err error) {
	t0 := time.Now()
	g := gen.Kron(sz.kronScale, sz.kronDeg, derive(seed, "update_stream.kron"))
	genS = time.Since(t0).Seconds()
	csr, err := sealAndWrite(dir, updateGraph, g)
	if err != nil {
		return nil, 0, 0, err
	}
	in = &updateInput{g: g, dataDir: filepath.Join(dir, fmt.Sprintf("data%d", rep))}
	t1 := time.Now()
	if in.stream, err = gen.UpdateStream(g, batches, batchSize, derive(seed, "update_stream.updates"), true); err != nil {
		return nil, 0, 0, err
	}
	genS += time.Since(t1).Seconds()
	if in.d, err = startAndLoad(in.dataDir, map[string]string{updateGraph: csr}); err != nil {
		return nil, 0, 0, err
	}
	return in, time.Since(t0).Seconds(), genS, nil
}

// readerCycle is what connection 2 keeps asking for while the writer runs.
var readerCycle = []server.JobRequest{
	{Graph: updateGraph, App: "cc", Incremental: true},
	{Graph: updateGraph, App: "pr", Incremental: true},
	{Graph: updateGraph, App: "bfs"},
}

// readSample is one reader job. The daemon resolves a job's epoch as the
// job starts, so it lies between the batches acknowledged and the batches
// sent when the job was submitted.
type readSample struct {
	app        string
	start, end time.Time
	lo, hi     int // candidate epochs, in batches applied
	body       []byte
	jobID      string
	err        error
}

// writeSample is one batch POST.
type writeSample struct {
	start, end time.Time
	err        error
}

// streamUpdates posts the stream back to back on one connection while a
// second connection cycles reader jobs until the writer is done.
func streamUpdates(d *daemon, stream [][]graph.EdgeUpdate) ([]writeSample, []readSample, float64) {
	var sent, acked atomic.Int64
	var done atomic.Bool
	writes := make([]writeSample, 0, len(stream))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, b := range stream {
			sent.Store(int64(i + 1))
			w := writeSample{start: time.Now()}
			w.err = d.update(updateGraph, b)
			w.end = time.Now()
			writes = append(writes, w)
			if w.err != nil {
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	var reads []readSample
	t0 := time.Now()
	// The reader stops at the first cycle boundary after the writer is done:
	// stopping mid-cycle would make the job count depend on whether the last
	// job was the 20 ms bfs or the 0.5 s pr.
	for i := 0; !done.Load() || i%len(readerCycle) != 0; i++ {
		req := readerCycle[i%len(readerCycle)]
		s := readSample{app: req.App, lo: int(acked.Load()), hi: int(sent.Load()) + 1, start: time.Now()}
		rep, err := d.job(req)
		s.end, s.err, s.body, s.jobID = time.Now(), err, rep.body, rep.jobID
		reads = append(reads, s)
	}
	readerElapsed := time.Since(t0).Seconds()
	wg.Wait()
	return writes, reads, readerElapsed
}

// awaitCompaction waits until the daemon's background compactor is idle:
// a compactor runs exactly while the overlay is over the threshold, and its
// swap to csr form is what brings it back under.
func awaitCompaction(d *daemon, name string) (server.GraphInfo, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, ok, err := d.graphInfo(name)
		if err != nil {
			return info, err
		}
		if !ok {
			return info, fmt.Errorf("graph %q vanished", name)
		}
		if info.OverlayEntries <= info.Edges/server.DefaultCompactDiv {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("compaction of %q did not settle", name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// snapshotSeq returns k of the data dir's newest base-<k>.csrz: the number
// of batches the committed snapshot subsumes.
func snapshotSeq(dataDir, name string) (int, error) {
	entries, err := os.ReadDir(filepath.Join(dataDir, name))
	if err != nil {
		return 0, err
	}
	best := -1
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "base-") && strings.HasSuffix(n, ".csrz") {
			if k, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(n, "base-"), ".csrz")); err == nil && k > best {
				best = k
			}
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no committed snapshot under %s/%s", dataDir, name)
	}
	return best, nil
}

// recoverOnce restarts pmemserved on dataDir and returns it with the time
// from exec until /v1/graphs lists name with wantEdges edges.
func recoverOnce(dataDir, name string, wantEdges int64) (*daemon, float64, error) {
	d, err := startDaemon(runtime.NumCPU(), dataDir)
	if err != nil {
		return nil, 0, err
	}
	info, ok, err := d.graphInfo(name)
	secs := time.Since(d.execAt).Seconds()
	if err == nil && (!ok || info.Edges != wantEdges) {
		err = fmt.Errorf("recovered %q with %d edges (listed: %v), want %d", name, info.Edges, ok, wantEdges)
	}
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, secs, nil
}

// epoch is the graph after some number of batches, held the way the
// daemon holds one: a sealed base CSR and an overlay of the batches since.
type epoch struct {
	base *graph.Graph
	ov   *graph.Overlay // nil when no batch has been applied since base
}

// rebaseEvery bounds the overlays foldStream builds. Overlay.Apply copies
// the delta it extends, so folding a long stream into one overlay is
// quadratic; the daemon escapes that by compacting, the benchmark by
// materializing a fresh base every few batches. Kernel outputs do not
// depend on where the split falls (only the charging does), which is what
// makes these epochs usable as output references.
const rebaseEvery = 16

// foldStream folds the stream batch by batch: the result's element i is the
// graph after i batches (element 0 is g itself).
func foldStream(g *graph.Graph, stream [][]graph.EdgeUpdate, rebase int) ([]epoch, error) {
	out := []epoch{{base: g}}
	cur := out[0]
	since := 0
	for i, b := range stream {
		ov := cur.ov
		if ov == nil {
			ov = graph.NewOverlay(cur.base)
		}
		next, _, err := ov.Apply(b)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i+1, err)
		}
		cur = epoch{base: cur.base, ov: next}
		out = append(out, cur)
		if since++; rebase > 0 && since == rebase {
			cur, since = epoch{base: cur.materialized()}, 0
		}
	}
	return out, nil
}

// materialized returns the epoch as one sealed CSR, the form a checkpoint
// leaves behind.
func (e epoch) materialized() *graph.Graph {
	if e.ov == nil {
		return e.base
	}
	m := e.ov.Materialize()
	sealGraph(m, false)
	return m
}

func (e epoch) numEdges() int64 {
	if e.ov != nil {
		return e.ov.NumEdges()
	}
	return e.base.NumEdges()
}

// run is a direct Galois raw run of app on the epoch.
func (e epoch) run(app string) (*analytics.Result, error) {
	machine := serverMachine()
	opts := frameworks.Galois.Options(app, machine.MaxThreads())
	if e.ov == nil {
		return frameworks.Galois.RunOnOpts(memsim.NewMachine(machine), e.base, app, opts, frameworks.DefaultParams(e.base))
	}
	return frameworks.Galois.RunOverlayOnOpts(memsim.NewMachine(machine), e.ov, app, opts, frameworks.DefaultParamsOverlay(e.ov))
}

// maxPRChecks bounds how many reader pr jobs are re-run (a pr re-run costs
// what the job cost); the rest are checked for shape only.
const maxPRChecks = 4

// verifyReads checks each reader job's outputs against a direct run on one
// of its candidate epochs.
func verifyReads(r *run, epochs []epoch, reads []readSample) {
	memo := map[string]string{}
	want := func(e int, app string) string {
		key := fmt.Sprintf("%d/%s", e, app)
		if d, ok := memo[key]; ok {
			return d
		}
		res, err := epochs[e].run(app)
		d := "direct run failed"
		if err == nil {
			d = digestResult(res)
		}
		memo[key] = d
		return d
	}
	var prs []int
	for i, s := range reads {
		if s.app == "pr" && s.err == nil {
			prs = append(prs, i)
		}
	}
	checkPR := map[int]bool{}
	for j := 0; j < maxPRChecks && len(prs) > 0; j++ {
		checkPR[prs[j*(len(prs)-1)/max(maxPRChecks-1, 1)]] = true
	}
	for i, s := range reads {
		if s.err != nil {
			r.chk.op(false, "reader %s: %v", s.app, s.err)
			continue
		}
		got, res, err := digestBody(s.body)
		if err != nil {
			r.chk.op(false, "reader %s: %v", s.app, err)
			continue
		}
		if s.app == "pr" && !checkPR[i] {
			r.chk.op(res.App == "pr" && len(res.Rank) == epochs[0].base.NumNodes(), "reader pr: malformed result")
			continue
		}
		ok := false
		for e := s.lo; e <= s.hi && e < len(epochs) && !ok; e++ {
			ok = got == want(e, s.app)
		}
		r.chk.op(ok, "reader %s: outputs match no direct run on epochs %d..%d", s.app, s.lo, s.hi)
	}
}

// runUpdate drives update_stream.
func runUpdate(r *run) error {
	dir, err := tempDir("update")
	if err != nil {
		return err
	}
	reps := r.cfg.sizes.setupReps
	if r.cfg.trace {
		reps = 1
	}
	batches := int(updateBatchesPerSecond*r.cfg.seconds) + tailBatches
	var in *updateInput
	var setups, gens []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			in.d.kill()
		}
		next, s, g, err := updateSetup(r.cfg.seed, r.cfg.sizes, dir, batches, i)
		if err != nil {
			return err
		}
		in, setups, gens = next, append(setups, s), append(gens, g)
	}
	r.e2e["setup_s"] = summarize(setups, 1)
	r.layer["gen.build_s"] = summarize(gens, 1)

	body := len(in.stream) - tailBatches
	writes, reads, readerElapsed := streamUpdates(in.d, in.stream[:body])
	var batchS []float64
	for i, w := range writes {
		r.chk.op(w.err == nil, "batch %d: %v", i+1, w.err)
		if w.err == nil {
			batchS = append(batchS, w.end.Sub(w.start).Seconds())
		}
	}
	if len(batchS) != body {
		return fmt.Errorf("writer stopped after %d of %d batches", len(batchS), body)
	}
	writerElapsed := writes[len(writes)-1].end.Sub(writes[0].start).Seconds()

	epochs, err := foldStream(in.g, in.stream, rebaseEvery)
	if err != nil {
		return err
	}
	final := epochs[len(epochs)-1]

	// Settle, log the tail, take the pre-kill bytes, note which batches
	// the committed snapshot subsumes, and only then crash the daemon.
	if _, err := awaitCompaction(in.d, updateGraph); err != nil {
		return err
	}
	for i, b := range in.stream[body:] {
		err := in.d.update(updateGraph, b)
		r.chk.op(err == nil, "tail batch %d: %v", i+1, err)
		if err != nil {
			return err
		}
	}
	bfs := server.JobRequest{Graph: updateGraph, App: "bfs"}
	before, err := in.d.job(bfs)
	r.chk.op(err == nil, "pre-kill bfs: %v", err)
	if err != nil {
		return err
	}
	if r.tr != nil {
		t0 := time.Now()
		if err := updateSpans(r.tr, in.d, writes, reads); err != nil {
			return err
		}
		r.layer["host.trace_overhead_share"] = single(time.Since(t0).Seconds() / writerElapsed)
		if err := r.putDaemonStats(in.d, nil); err != nil {
			return err
		}
	}
	snap, err := snapshotSeq(in.dataDir, updateGraph)
	if err != nil {
		return err
	}
	rss := in.d.peakRSSMB()
	in.d.kill()

	var recovers []float64
	for i := 0; i < restarts; i++ {
		d, secs, err := recoverOnce(in.dataDir, updateGraph, final.numEdges())
		r.chk.op(err == nil, "restart %d: %v", i+1, err)
		if err != nil {
			return err
		}
		recovers = append(recovers, secs)
		after, err := d.job(bfs)
		r.chk.op(err == nil && bytes.Equal(after.body, before.body), "restart %d: bfs bytes differ from the pre-kill bytes (%v)", i+1, err)
		if hwm := d.peakRSSMB(); hwm > rss {
			rss = hwm
		}
		d.kill()
	}

	// Untimed checks. The served bytes must equal a direct run on the same
	// split the daemon held: snapshot after `snap` batches, overlay of the
	// rest. The outputs must also equal a run on the stream's final graph
	// rebuilt as a plain CSR.
	verifyReads(r, epochs, reads)
	split, err := foldStream(epochs[snap].materialized(), in.stream[snap:], 0)
	if err != nil {
		return err
	}
	res, err := split[len(split)-1].run("bfs")
	var direct []byte
	if err == nil {
		direct, err = analytics.MarshalResult(res)
	}
	r.chk.op(err == nil && bytes.Equal(direct, before.body),
		"pre-kill bfs bytes differ from a direct run on snapshot %d + %d logged batches (%v)", snap, len(in.stream)-snap, err)
	rebuilt := epoch{base: final.materialized()}
	simS := 0.0
	for _, app := range []string{"bfs", "cc"} {
		res, err := rebuilt.run(app)
		if err != nil {
			return err
		}
		simS += res.Seconds
		r.refs["final/"+app] = digestResult(res)
	}
	got, _, err := digestBody(before.body)
	r.chk.op(err == nil && got == r.refs["final/bfs"], "pre-kill bfs outputs differ from a run on the rebuilt final graph (%v)", err)

	pass := single(writerElapsed)
	pass.N = len(batchS)
	r.e2e["pass_s"] = pass
	edges := single(float64(len(batchS)*batchSize) / writerElapsed)
	edges.N = len(batchS)
	r.e2e["update_edges_per_s"] = edges
	r.e2e["update_batch_p50_ms"] = summarize(batchS, 1e3)
	r.e2e["update_batch_p95_ms"] = summarizeTail(batchS, 1e3)
	jobs := single(float64(len(reads)) / readerElapsed)
	jobs.N = len(reads)
	r.e2e["jobs_per_s"] = jobs
	r.e2e["recover_s"] = summarize(recovers, 1)
	r.e2e["sim_seconds"] = single(simS)
	r.e2e["peak_rss_mb"] = single(rss)

	if r.cfg.trace {
		return runProbes(r, probeInput{g: in.g, machine: serverMachine(), profile: frameworks.Galois,
			backend: core.BackendRaw, params: frameworks.DefaultParams(in.g)})
	}
	return nil
}

// updateSpans records each batch POST, and each reader job with the queue
// wait and run time the daemon reports for it.
func updateSpans(tr *tracer, d *daemon, writes []writeSample, reads []readSample) error {
	for i, w := range writes {
		tr.add(-1, "http.update", fmt.Sprintf("batch%d", i+1), w.start, w.end)
	}
	samples := make([]sample, len(reads))
	for i, s := range reads {
		samples[i] = sample{request: request{stratum: "reader/" + s.app}, start: s.start, end: s.end, jobID: s.jobID, err: s.err}
	}
	return jobSpans(tr, d, samples)
}

// probeSession is the served end of the ladder on the workload's own graph:
// one durable pmemserved child is loaded with it, asked for cached and
// uncached jobs (closed loop, then a short open loop to time the
// generator), fed a few update batches, killed, and recovered once.
func probeSession(r *run, in probeInput, dir string, stream [][]graph.EdgeUpdate) error {
	csr := filepath.Join(dir, "probe.csr") // written by probeServer
	dataDir := filepath.Join(dir, "session-data")
	d, err := startAndLoad(dataDir, map[string]string{"g": csr})
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	hit := request{req: server.JobRequest{Graph: "g", App: "bfs"}, key: "hit"}
	miss := hit
	miss.req.NoCache = true
	var samples []sample
	note := func(ss []sample) error {
		for _, s := range ss {
			if s.err != nil {
				return s.err
			}
		}
		samples = append(samples, ss...)
		return nil
	}
	misses, _ := closedLoop(d, []request{miss, miss, miss}, 1)
	if err := note(misses); err != nil {
		return err
	}
	hits, _ := closedLoop(d, repeat(hit, 21), 1)
	if err := note(hits); err != nil {
		return err
	}
	var hitS []float64
	for _, s := range hits[1:] { // the first fills the cache
		hitS = append(hitS, s.latency())
	}
	r.put("http.hit_roundtrip_ms", hitS, 1e3)
	const openN, openRate = 40, 50.0
	dues := make([]time.Duration, openN)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / openRate * float64(time.Second))
	}
	paced := openLoop(d, repeat(hit, openN), dues)
	if err := note(paced); err != nil {
		return err
	}
	var lag, lat []float64
	for _, s := range paced {
		lag, lat = append(lag, s.lag), append(lat, s.latency())
	}
	r.layer["loadgen.lag_p95_ms"] = summarizeTail(lag, 1e3)
	r.put("latency_p50_ms", lat, 1e3)
	r.layer["latency_p95_ms"] = summarizeTail(lat, 1e3)
	if err := r.putDaemonStats(d, samples); err != nil {
		return err
	}

	var batchS []float64
	t0 := time.Now()
	for _, b := range stream {
		t := time.Now()
		if err := d.update("g", b); err != nil {
			return err
		}
		batchS = append(batchS, time.Since(t).Seconds())
	}
	elapsed := time.Since(t0).Seconds()
	r.put("update_batch_p50_ms", batchS, 1e3)
	r.layer["update_batch_p95_ms"] = summarizeTail(batchS, 1e3)
	r.layer["update_edges_per_s"] = single(float64(len(stream)*batchSize) / elapsed)
	r.layer["http.update_overhead_ms"] = single(summarize(batchS, 1e3).Value - r.layer["server.apply_updates_durable_ms"].Value)

	epochs, err := foldStream(in.g, stream, 0)
	if err != nil {
		return err
	}
	if _, err := awaitCompaction(d, "g"); err != nil {
		return err
	}
	d.kill()
	again, secs, err := recoverOnce(dataDir, "g", epochs[len(epochs)-1].numEdges())
	if err != nil {
		return err
	}
	d = again
	r.layer["recover_s"] = single(secs)
	return nil
}

func repeat(rq request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = rq
	}
	return out
}
