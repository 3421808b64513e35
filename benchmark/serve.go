package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/loadgen"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
)

// serverMachine is the machine pmemserved simulates with its default flags
// (-machine optane -scale small); direct runs must use the same one for
// their bytes to equal the served bytes.
func serverMachine() memsim.MachineConfig {
	return memsim.Scaled(memsim.OptaneMachine(), gen.ScaleSmall.Div())
}

// splitmix is the benchmark's own seeded stream (the idiom gen and loadgen
// use privately).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Cohort shape of serve_mixed.
const (
	browserUsers     = 512
	browserSources   = 32 // distinct bfs sources the users' queries spread over, Zipf by rank
	traceVirtualRate = 1000.0
)

// serveSpec is the three-cohort mix: browsers 60 %, analysts 25 %,
// scanners 15 %.
func serveSpec(seed uint64, events int) loadgen.Spec {
	return loadgen.Spec{
		Seed:     derive(seed, "serve_mixed.loadgen"),
		Arrival:  loadgen.ArrivalSteady,
		Rate:     traceVirtualRate,
		Duration: float64(events) / traceVirtualRate,
		Cohorts: []loadgen.Cohort{
			{Name: "browsers", Class: server.ClassInteractive, Weight: 60, Users: browserUsers,
				Graphs: []string{"web"}, Apps: []string{"bfs"}},
			{Name: "analysts", Class: server.ClassBatch, Weight: 25, Users: 16,
				Graphs: []string{"kron"}, Apps: []string{"pr", "cc", "kcore"}, AppSkew: 1},
			{Name: "scanners", Class: server.ClassBatch, Weight: 15, Users: 8,
				Graphs: []string{"kron"}, Apps: []string{"bfs", "cc"}, Threads: shardThreads},
		},
	}
}

// traceEvents is a generated trace and its canonical bytes.
type traceEvents struct {
	spec   loadgen.Spec
	events []loadgen.Event
	bytes  []byte
}

// closedCount and openCount turn -seconds into event counts.
func closedCount(seconds float64) int { return int(serveClosedPerSecond * seconds) }
func openCount(seconds float64) int   { return int(serveOpenRate * serveOpenShare * seconds) }

// warmup is the untimed tenth replayed before a phase's n timed events.
func warmup(n int) int { return n / 10 }

// traceEventsFor is how many raw events to generate so that the quota
// filter below can always fill the larger phase.
func traceEventsFor(seconds float64) int {
	n := max(closedCount(seconds), openCount(seconds))
	return 4*(n+warmup(n)) + 400
}

func generateTrace(seed uint64, events int) (*traceEvents, error) {
	spec := serveSpec(seed, events)
	tr, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	data, err := tr.Marshal()
	if err != nil {
		return nil, err
	}
	return &traceEvents{spec: spec, events: tr.Events, bytes: data}, nil
}

// stratum is what an event costs the server: its cohort and kernel.
func stratum(ev loadgen.Event) string { return ev.Cohort + "/" + ev.App }

// nominalMix is the spec's own event distribution over strata: cohort
// weight share times the Zipf share of the app's rank.
func nominalMix(spec loadgen.Spec) map[string]float64 {
	total := 0.0
	for _, c := range spec.Cohorts {
		total += c.Weight
	}
	mix := map[string]float64{}
	for _, c := range spec.Cohorts {
		z := 0.0
		for k := range c.Apps {
			z += 1 / math.Pow(float64(k+1), c.AppSkew)
		}
		for k, app := range c.Apps {
			mix[c.Name+"/"+app] = c.Weight / total / math.Pow(float64(k+1), c.AppSkew) / z
		}
	}
	return mix
}

// quotaReplay walks the trace from event `from` and keeps its order, but
// admits each stratum only up to its nominal share of n events (largest
// remainders round the shares to whole events), so that every seed replays
// the same mix. Without it the number of 0.4 s sharded cc jobs among a few
// hundred events varies by a fifth from seed to seed, and closed-loop
// throughput with it. It returns the kept events and where it stopped.
func quotaReplay(tr *traceEvents, from, n int) ([]loadgen.Event, int, error) {
	mix := nominalMix(tr.spec)
	names := make([]string, 0, len(mix))
	for s := range mix {
		names = append(names, s)
	}
	sort.Strings(names)
	quota := map[string]int{}
	left := n
	for _, s := range names {
		quota[s] = int(mix[s] * float64(n))
		left -= quota[s]
	}
	sort.SliceStable(names, func(i, j int) bool {
		fi := mix[names[i]]*float64(n) - float64(quota[names[i]])
		fj := mix[names[j]]*float64(n) - float64(quota[names[j]])
		return fi > fj
	})
	for i := 0; i < left; i++ {
		quota[names[i%len(names)]]++
	}
	out := make([]loadgen.Event, 0, n)
	for i := from; i < len(tr.events) && len(out) < n; i++ {
		if s := stratum(tr.events[i]); quota[s] > 0 {
			quota[s]--
			out = append(out, tr.events[i])
			from = i + 1
		}
	}
	if len(out) < n {
		return nil, 0, fmt.Errorf("trace of %d events cannot fill a %d-event quota", len(tr.events), n)
	}
	return out, from, nil
}

// serveInput is serve_mixed's set-up product.
type serveInput struct {
	graphs  map[string]*graph.Graph
	files   map[string]string
	sources []graph.Node // user -> bfs source
	d       *daemon
	// caches for direct runs
	params map[string]frameworks.Params
	parts  map[string]*graph.Partition
}

// sealAndWrite seals g as the registry would and writes it where the
// daemon can load it.
func sealAndWrite(dir, name string, g *graph.Graph) (string, error) {
	sealGraph(g, true)
	path := filepath.Join(dir, name+".csr")
	return path, writeCSRFile(path, g)
}

// startAndLoad starts a daemon and loads the named CSR files.
func startAndLoad(dataDir string, files map[string]string) (*daemon, error) {
	d, err := startDaemon(runtime.NumCPU(), dataDir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := d.loadGraph(name, files[name]); err != nil {
			d.kill()
			return nil, err
		}
	}
	return d, nil
}

func serveSetup(seed uint64, sz sizes, dir string) (in *serveInput, total, genS float64, err error) {
	t0 := time.Now()
	in = &serveInput{
		graphs: map[string]*graph.Graph{
			"web":  gen.WebCrawl(sz.webN, sz.crawlDeg, sz.crawlDepth, derive(seed, "serve_mixed.web")),
			"kron": gen.Kron(sz.kronScale, sz.kronDeg, derive(seed, "serve_mixed.kron")),
		},
		files:  map[string]string{},
		params: map[string]frameworks.Params{},
		parts:  map[string]*graph.Partition{},
	}
	genS = time.Since(t0).Seconds()
	for name, g := range in.graphs {
		path, err := sealAndWrite(dir, name, g)
		if err != nil {
			return nil, 0, 0, err
		}
		in.files[name] = path
	}
	// Users share a small set of popular sources, Zipf by rank: popular
	// sources hit the cache, the tail misses.
	web := in.graphs["web"]
	rnd := &splitmix{s: derive(seed, "serve_mixed.sources")}
	var candidates []graph.Node
	for len(candidates) < browserSources {
		v := graph.Node(rnd.next() % uint64(web.NumNodes()))
		if web.OutDegree(v) > 0 {
			candidates = append(candidates, v)
		}
	}
	cum := make([]float64, browserSources)
	z := 0.0
	for k := range cum {
		z += 1 / float64(k+1)
		cum[k] = z
	}
	in.sources = make([]graph.Node, browserUsers)
	for u := range in.sources {
		x := rnd.float() * z
		in.sources[u] = candidates[sort.SearchFloat64s(cum, x)]
	}
	if in.d, err = startAndLoad("", in.files); err != nil {
		return nil, 0, 0, err
	}
	return in, time.Since(t0).Seconds(), genS, nil
}

// request is one job as both sides see it: the body posted to the daemon
// and the key naming the direct run that must produce the same bytes.
type request struct {
	req     server.JobRequest
	key     string
	stratum string
}

func (in *serveInput) request(ev loadgen.Event) request {
	req := server.JobRequest{Graph: ev.Graph, App: ev.App, Class: ev.Class, Threads: ev.Threads}
	switch ev.Cohort {
	case "browsers":
		src := in.sources[ev.User]
		req.Params = &server.ParamOverrides{Source: &src}
	case "analysts":
		req.Backend = core.BackendCompressed.String()
	case "scanners":
		req.Shards = shardCount
		req.NoCache = true
	}
	key := fmt.Sprintf("%s/%s/%s/s%d", req.Graph, req.App, req.Backend, req.Shards)
	if req.Params != nil {
		key += fmt.Sprintf("/src%d", *req.Params.Source)
	}
	return request{req: req, key: key, stratum: stratum(ev)}
}

// direct runs req the way server.runJob would, without the server, and
// returns the canonical bytes.
func (in *serveInput) direct(req server.JobRequest) ([]byte, *analytics.Result, error) {
	g := in.graphs[req.Graph]
	params, ok := in.params[req.Graph]
	if !ok {
		params = frameworks.DefaultParams(g)
		in.params[req.Graph] = params
	}
	if req.Params != nil && req.Params.Source != nil {
		params.Source = *req.Params.Source
	}
	machine := serverMachine()
	t := req.Threads
	if t <= 0 {
		t = machine.MaxThreads()
	}
	backend, err := core.ParseBackend(req.Backend)
	if err != nil {
		return nil, nil, err
	}
	opts := frameworks.Galois.Options(req.App, t)
	opts.Backend = backend
	var res *analytics.Result
	if req.Shards > 0 {
		part, ok := in.parts[req.Graph]
		if !ok {
			if part, err = graph.NewPartition(g, req.Shards); err != nil {
				return nil, nil, err
			}
			in.parts[req.Graph] = part
		}
		res, err = frameworks.RunShardedOnOpts(machine, part, req.App, opts, params)
	} else {
		res, err = frameworks.Galois.RunOnOpts(memsim.NewMachine(machine), g, req.App, opts, params)
	}
	if err != nil {
		return nil, nil, err
	}
	body, err := analytics.MarshalResult(res)
	return body, res, err
}

// sample is one served request as the client saw it.
type sample struct {
	request
	start, end time.Time
	due        time.Time // open loop only
	lag        float64   // open loop: how late the generator sent it
	sha        string
	bytes      int
	jobID      string
	hit        bool
	err        error
}

func (s *sample) latency() float64 {
	if !s.due.IsZero() {
		return s.end.Sub(s.due).Seconds()
	}
	return s.end.Sub(s.start).Seconds()
}

func send(d *daemon, rq request) sample {
	s := sample{request: rq, start: time.Now()}
	rep, err := d.job(rq.req)
	s.end = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	s.sha, s.bytes, s.jobID, s.hit = bytesDigest(rep.body), len(rep.body), rep.jobID, rep.hit
	return s
}

// closedLoop replays reqs back to back over a fixed number of clients, each
// sending its next request only after the previous reply, and returns the
// samples in request order with the elapsed time.
func closedLoop(d *daemon, reqs []request, clients int) ([]sample, float64) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = send(d, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// openInFlight caps concurrently outstanding open-loop requests. It is far
// above anything the frozen rate reaches, so queueing happens in the
// daemon's scheduler, where it is measured, not in the client.
const openInFlight = 256

// openLoop sends reqs[i] at start+dues[i] whatever the server is doing, and
// times each from its due time.
func openLoop(d *daemon, reqs []request, dues []time.Duration) []sample {
	out := make([]sample, len(reqs))
	slots := make(chan struct{}, openInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(dues[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		slots <- struct{}{}
		lag := time.Since(due).Seconds()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := send(d, reqs[i])
			s.due, s.lag = due, lag
			out[i] = s
			<-slots
		}(i)
	}
	wg.Wait()
	return out
}

// verifyServed checks every sample's bytes against a direct run of its key
// and returns the direct results by key.
func verifyServed(r *run, in *serveInput, samples []sample) map[string]*analytics.Result {
	want := map[string]string{}
	results := map[string]*analytics.Result{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			r.chk.op(false, "%s: %v", s.key, s.err)
			continue
		}
		if _, ok := want[s.key]; !ok {
			body, res, err := in.direct(s.req)
			if err != nil {
				want[s.key] = "direct run failed: " + err.Error()
			} else {
				want[s.key], results[s.key] = bytesDigest(body), res
				r.refs[s.key] = digestResult(res)
			}
		}
		r.chk.op(s.sha == want[s.key], "%s: served bytes differ from a direct run (%s)", s.key, want[s.key])
	}
	return results
}

// jobSpans records each served request as a client round trip enclosing the
// queue wait and run time the daemon's JobStatus reports.
func jobSpans(tr *tracer, d *daemon, samples []sample) error {
	if tr == nil {
		return nil
	}
	statuses, err := d.jobs()
	if err != nil {
		return err
	}
	byID := map[string]server.JobStatus{}
	for _, st := range statuses {
		byID[st.ID] = st
	}
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		root := tr.add(-1, "http.job:"+s.stratum, s.jobID, s.start, s.end)
		if st, ok := byID[s.jobID]; ok {
			q := s.start.Add(time.Duration(st.QueueSeconds * float64(time.Second)))
			tr.add(root, "server.queue", s.jobID, s.start, q)
			tr.add(root, "server.run", s.jobID, q, q.Add(time.Duration(st.RunSeconds*float64(time.Second))))
		}
	}
	return nil
}

// sessionStats is what a daemon's own bookkeeping says about the jobs it
// served: the server.* and http.* rungs taken from /v1/jobs and /v1/stats.
func (r *run) putDaemonStats(d *daemon, samples []sample) error {
	statuses, err := d.jobs()
	if err != nil {
		return err
	}
	var queue, service []float64
	hits := 0
	for _, st := range statuses {
		if st.State != server.JobDone {
			continue
		}
		queue, service = append(queue, st.QueueSeconds), append(service, st.RunSeconds)
		if st.CacheHit {
			hits++
		}
	}
	if len(queue) == 0 {
		return fmt.Errorf("daemon reports no completed jobs")
	}
	r.put("server.queue_wait_p50_ms", queue, 1e3)
	r.layer["server.queue_wait_p95_ms"] = summarizeTail(queue, 1e3)
	r.put("server.service_p50_ms", service, 1e3)
	r.layer["server.service_p95_ms"] = summarizeTail(service, 1e3)
	r.layer["server.cache_hit_share"] = single(float64(hits) / float64(len(queue)))
	st, err := d.stats()
	if err != nil {
		return err
	}
	r.layer["server.kernel_executions"] = single(float64(st.KernelExecutions))
	r.layer["server.rejected"] = single(float64(st.Scheduler.Rejected))
	r.layer["server.shed"] = single(float64(st.Scheduler.Shed))
	var sizes []float64
	for _, s := range samples {
		if s.err == nil {
			sizes = append(sizes, float64(s.bytes))
		}
	}
	if len(sizes) > 0 {
		mean := single(sum(sizes) / float64(len(sizes)) / 1e6)
		mean.N = len(sizes)
		r.layer["http.body_mb_per_job"] = mean
	}
	d.mu.Lock()
	r.layer["http.errors"] = single(float64(d.httpErrors))
	d.mu.Unlock()
	return nil
}

// runServe drives serve_mixed: phase A closed loop for throughput, phase B
// open loop on a fresh child for latency at the frozen rate.
func runServe(r *run) error {
	dir, err := tempDir("serve")
	if err != nil {
		return err
	}
	reps := r.cfg.sizes.setupReps
	seconds := r.cfg.seconds
	if r.cfg.trace {
		reps = 1
	}
	var in *serveInput
	var setups, gens []float64
	for i := 0; i < reps; i++ {
		if in != nil {
			in.d.kill()
		}
		next, s, g, err := serveSetup(r.cfg.seed, r.cfg.sizes, dir)
		if err != nil {
			return err
		}
		in, setups, gens = next, append(setups, s), append(gens, g)
	}
	r.e2e["setup_s"] = summarize(setups, 1)
	r.layer["gen.build_s"] = summarize(gens, 1)

	trace, err := generateTrace(r.cfg.seed, traceEventsFor(seconds))
	if err != nil {
		return err
	}
	// build draws a phase's requests from the trace: an untimed tenth to
	// warm up, then n timed, each with the nominal mix.
	build := func(n int) (warm, timed []request, err error) {
		from := 0
		for _, part := range []struct {
			n   int
			dst *[]request
		}{{warmup(n), &warm}, {n, &timed}} {
			var evs []loadgen.Event
			if evs, from, err = quotaReplay(trace, from, part.n); err != nil {
				return nil, nil, err
			}
			for _, ev := range evs {
				*part.dst = append(*part.dst, in.request(ev))
			}
		}
		return warm, timed, nil
	}

	// Phase A: closed loop, nproc clients, the first tenth untimed.
	warmReqsA, reqsA, err := build(closedCount(seconds))
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	warmA, _ := closedLoop(in.d, warmReqsA, clients)
	timedA, elapsedA := closedLoop(in.d, reqsA, clients)
	if err := jobSpans(r.tr, in.d, timedA); err != nil {
		return err
	}
	rss := in.d.peakRSSMB()
	in.d.kill()

	// Phase B: the same trace on a fresh child, paced at the frozen rate
	// by the raw trace's own arrival stamps, timed from each due time.
	warmReqsB, reqsB, err := build(openCount(seconds))
	if err != nil {
		return err
	}
	nWarmB := len(warmReqsB)
	reqsB = append(warmReqsB, reqsB...)
	dues := make([]time.Duration, len(reqsB))
	for i := range dues {
		virtual := float64(trace.events[i].ArrivalUS-trace.events[0].ArrivalUS) / 1e6
		dues[i] = time.Duration(virtual * traceVirtualRate / serveOpenRate * float64(time.Second))
	}
	if in.d, err = startAndLoad("", in.files); err != nil {
		return err
	}
	startB := time.Now()
	allB := openLoop(in.d, reqsB, dues)
	elapsedB := time.Since(startB).Seconds()
	warmB, timedB := allB[:nWarmB], allB[nWarmB:]
	startSpans := time.Now()
	if err := jobSpans(r.tr, in.d, timedB); err != nil {
		return err
	}
	if r.cfg.trace {
		// Served ops are traced after the fact, from the daemon's own job
		// records; the overhead is the time that takes.
		r.layer["host.trace_overhead_share"] = single(time.Since(startSpans).Seconds() / elapsedB)
		if err := r.putDaemonStats(in.d, timedB); err != nil {
			return err
		}
	}
	if hwm := in.d.peakRSSMB(); hwm > rss {
		rss = hwm
	}
	in.d.kill()

	// Untimed: every served body against a direct run of its request.
	all := append(append(append(append([]sample(nil), warmA...), timedA...), warmB...), timedB...)
	results := verifyServed(r, in, all)
	r.refs = map[string]string{"all": rollup(r.refs)}

	seen := map[string]bool{}
	simS := 0.0
	for _, s := range timedA {
		if res := results[s.key]; res != nil && !seen[s.key] {
			seen[s.key] = true
			simS += res.Seconds
		}
	}
	pass := single(elapsedA)
	pass.N = len(timedA)
	r.e2e["pass_s"] = pass
	jobs := single(float64(len(timedA)) / elapsedA)
	jobs.N = len(timedA)
	r.e2e["jobs_per_s"] = jobs
	r.e2e["sim_seconds"] = single(simS)
	var lat, lag []float64
	for _, s := range timedB {
		lag = append(lag, s.lag)
		if s.err == nil { // a failed request has no latency; it is counted in failed
			lat = append(lat, s.latency())
		}
	}
	r.e2e["latency_p50_ms"] = summarize(lat, 1e3)
	r.e2e["latency_p95_ms"] = summarizeTail(lat, 1e3)
	r.e2e["peak_rss_mb"] = single(rss)

	// Phase B is only an open loop if the generator kept its schedule.
	lagTail := summarizeTail(lag, 1e3)
	if lagTail.Value > 0.1*r.e2e["latency_p50_ms"].Value {
		fmt.Printf("%s invalid: generator lag p%.0f %.3f ms exceeds a tenth of latency_p50_ms %.3f ms\n",
			wServe, lagTail.Pct, lagTail.Value, r.e2e["latency_p50_ms"].Value)
	}

	if r.cfg.trace {
		r.layer["loadgen.lag_p95_ms"] = lagTail
		r.layer["loadgen.events"] = single(float64(len(all)))
		kron := in.graphs["kron"]
		return runProbes(r, probeInput{g: kron, machine: serverMachine(), profile: frameworks.Galois,
			backend: core.BackendRaw, params: frameworks.DefaultParams(kron)})
	}
	return nil
}
