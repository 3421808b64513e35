package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
)

// sizes are the input shapes. fullSizes are the issue's and are what every
// real run uses; the self-tests shrink them to smoke the same code paths.
type sizes struct {
	crawlN, crawlDeg, crawlDepth int // gen.WebCrawl, clueweb12 ScaleFull shape
	rmatScale, rmatDeg           int // gen.RMAT, rmat32 ScaleSmall shape
	webN                         int // serve_mixed's crawl
	kronScale, kronDeg           int // gen.Kron
	setupReps                    int // set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	crawlN: 248000, crawlDeg: 44, crawlDepth: 260,
	rmatScale: 18, rmatDeg: 16,
	webN:      62000,
	kronScale: 16, kronDeg: 16,
	setupReps: 3,
}

// libWorkload is one of the three library workloads: a generator, a
// framework profile, a storage backend and a fixed kernel list.
type libWorkload struct {
	name    string
	div     int64
	profile frameworks.Profile
	backend core.Backend
	apps    []string
	shards  int // 0 = unsharded
	build   func(seed uint64, sz sizes) *graph.Graph
}

var libraryWorkloads = map[string]libWorkload{
	wCrawl: {
		name: wCrawl, div: crawlDiv, profile: frameworks.Galois, backend: core.BackendRaw,
		apps: []string{"bfs", "sssp", "cc", "bc", "kcore"},
		build: func(seed uint64, sz sizes) *graph.Graph {
			return gen.WebCrawl(sz.crawlN, sz.crawlDeg, sz.crawlDepth, derive(seed, "crawl_sparse.graph"))
		},
	},
	wPower: {
		name: wPower, div: smallDiv, profile: frameworks.GBBS, backend: core.BackendCompressed,
		apps: []string{"bfs", "cc", "sssp", "bc", "pr"},
		build: func(seed uint64, sz sizes) *graph.Graph {
			return gen.RMAT(sz.rmatScale, sz.rmatDeg, .57, .19, .19, derive(seed, "power_dense.graph"), false)
		},
	},
	wShard: {
		name: wShard, div: smallDiv, profile: frameworks.Galois, backend: core.BackendRaw,
		apps: []string{"bfs", "sssp", "cc", "pr"}, shards: shardCount,
		build: func(seed uint64, sz sizes) *graph.Graph {
			return gen.RMAT(sz.rmatScale, sz.rmatDeg, .57, .19, .19, derive(seed, "shard_bsp.graph"), false)
		},
	},
}

// sealGraph materializes what the serving registry materializes before it
// shares a graph: the frameworks' default weights, the transpose and, when
// asked, both compressed encodings. After it no run mutates the graph.
func sealGraph(g *graph.Graph, compress bool) {
	if !g.HasWeights() {
		g.AddRandomWeights(frameworks.DefaultWeightMax, frameworks.DefaultWeightSeed)
	}
	g.BuildIn()
	if compress {
		g.CompressOut()
		g.CompressIn()
	}
}

// libInput is what set-up hands to the passes.
type libInput struct {
	g       *graph.Graph
	part    *graph.Partition
	params  frameworks.Params
	machine memsim.MachineConfig
}

// setup is everything before the first timed op. It returns the input, the
// whole set-up time and the generator's share of it.
func (lw libWorkload) setup(seed uint64, sz sizes) (*libInput, float64, float64, error) {
	t0 := time.Now()
	g := lw.build(seed, sz)
	genS := time.Since(t0).Seconds()
	sealGraph(g, lw.backend == core.BackendCompressed)
	in := &libInput{g: g, params: frameworks.DefaultParams(g), machine: memsim.Scaled(memsim.OptaneMachine(), lw.div)}
	if lw.shards > 0 {
		part, err := graph.NewPartition(g, lw.shards)
		if err != nil {
			return nil, 0, 0, err
		}
		in.part = part
	}
	return in, time.Since(t0).Seconds(), genS, nil
}

func (lw libWorkload) options(app string) core.Options {
	t := threads
	if lw.shards > 0 {
		t = shardThreads
	}
	opts := lw.profile.Options(app, t)
	opts.Backend = lw.backend
	return opts
}

// runOp executes one kernel through the entry point a caller would use.
func (lw libWorkload) runOp(in *libInput, app string) (*analytics.Result, error) {
	if lw.shards > 0 {
		return frameworks.RunShardedOnOpts(in.machine, in.part, app, lw.options(app), in.params)
	}
	return lw.profile.RunOnOpts(memsim.NewMachine(in.machine), in.g, app, lw.options(app), in.params)
}

// runOpTraced executes the same kernel as the exported calls the entry
// point itself makes, with a span around each. The seconds it returns cover
// only the calls runOp's entry point also makes, so that traced and
// untraced passes can be compared: partitioning (set-up, untraced) and
// marshalling (the caller's business) have spans but are left out.
func (lw libWorkload) runOpTraced(tr *tracer, op string, in *libInput, app string) (*analytics.Result, float64, error) {
	root := tr.start(-1, "op:"+app, op)
	defer tr.end(root)
	counted := 0.0
	span := func(name string, count bool, f func()) {
		s := tr.start(root, name, op)
		t0 := time.Now()
		f()
		if count {
			counted += time.Since(t0).Seconds()
		}
		tr.end(s)
	}
	timed := func(name string, f func()) { span(name, true, f) }
	opts := lw.options(app)
	var res *analytics.Result
	var err error
	if lw.shards > 0 {
		var part *graph.Partition
		span("graph.NewPartition", false, func() { part, err = graph.NewPartition(in.g, lw.shards) })
		if err != nil {
			return nil, 0, err
		}
		var e *shard.Engine
		timed("shard.New", func() { e, err = shard.New(part, shard.ServingConfig(in.machine, opts.Threads, opts.Backend)) })
		if err != nil {
			return nil, 0, err
		}
		timed("shard.Engine."+app, func() { res = shardedApp(e, app, in.params) })
		timed("shard.Engine.Close", e.Close)
	} else {
		var rt *core.Runtime
		timed("core.New", func() { rt, err = core.New(memsim.NewMachine(in.machine), in.g, opts) })
		if err != nil {
			return nil, 0, err
		}
		timed("frameworks.Profile.Run", func() { res, err = lw.profile.Run(rt, app, in.params) })
		timed("core.Runtime.Close", rt.Close)
		if err != nil {
			return nil, 0, err
		}
	}
	span("analytics.MarshalResult", false, func() { _, err = analytics.MarshalResult(res) })
	return res, counted, err
}

// shardedApp dispatches to the BSP kernel of app.
func shardedApp(e *shard.Engine, app string, p frameworks.Params) *analytics.Result {
	switch app {
	case "bfs":
		return e.BFS(p.Source)
	case "sssp":
		return e.SSSP(p.Source)
	case "cc":
		return e.CC()
	case "pr":
		return e.PR(p.Tol, p.Rounds)
	case "kcore":
		return e.KCore(p.K)
	default:
		return e.BC(p.Source)
	}
}

// reference computes the untimed oracle for one (graph, app, params):
// Galois, raw backend, unsharded.
func reference(in *libInput, app string) (*analytics.Result, error) {
	return frameworks.Galois.RunOnOpts(memsim.NewMachine(in.machine), in.g, app, frameworks.Galois.Options(app, threads), in.params)
}

// isReferenceConfig reports whether the workload's own ops are reference
// runs, in which case computing the references doubles as the warm-up pass.
func (lw libWorkload) isReferenceConfig() bool {
	return lw.shards == 0 && lw.backend == core.BackendRaw && lw.profile.Name == frameworks.Galois.Name
}

// passResult is one pass over the kernel list.
type passResult struct {
	opSeconds []float64
	total     float64 // host seconds, ops only
	sim       float64 // simulated seconds
}

// pass runs every kernel once and checks each output against its reference.
func (lw libWorkload) pass(r *run, in *libInput, traced bool, n int) passResult {
	var p passResult
	for _, app := range lw.apps {
		var res *analytics.Result
		var err error
		var dt float64
		if traced {
			res, dt, err = lw.runOpTraced(r.tr, fmt.Sprintf("pass%d/%s", n, app), in, app)
		} else {
			t0 := time.Now()
			res, err = lw.runOp(in, app)
			dt = time.Since(t0).Seconds()
		}
		if err != nil {
			r.chk.op(false, "%s/%s: %v", lw.name, app, err)
			continue
		}
		r.chk.op(digestResult(res) == r.refs[app], "%s/%s: output differs from the Galois raw unsharded reference", lw.name, app)
		p.opSeconds = append(p.opSeconds, dt)
		p.total += dt
		p.sim += res.Seconds
	}
	return p
}

// runLibrary drives one library workload.
func runLibrary(r *run, lw libWorkload) error {
	reps := r.cfg.sizes.setupReps
	if r.cfg.trace {
		reps = 1
	}
	var in *libInput
	var setups, gens []float64
	for i := 0; i < reps; i++ {
		// Drop the previous repetition's input first, so that peak_rss_mb
		// is the workload's and not two inputs side by side.
		in = nil
		runtime.GC()
		next, total, genS, err := lw.setup(r.cfg.seed, r.cfg.sizes)
		if err != nil {
			return err
		}
		in = next
		setups, gens = append(setups, total), append(gens, genS)
	}
	r.e2e["setup_s"] = summarize(setups, 1)
	r.layer["gen.build_s"] = summarize(gens, 1)

	for _, app := range lw.apps {
		res, err := reference(in, app)
		if err != nil {
			return fmt.Errorf("reference %s: %w", app, err)
		}
		r.refs[app] = digestResult(res)
	}
	if !lw.isReferenceConfig() {
		lw.pass(r, in, false, 0) // untimed warm-up
	}

	var passes []passResult
	elapsed := 0.0
	for n := 1; ; n++ {
		p := lw.pass(r, in, false, n)
		passes = append(passes, p)
		elapsed += p.total
		if p.sim != passes[0].sim {
			r.chk.fail("%s: pass %d simulated %v s, pass 1 simulated %v s", lw.name, n, p.sim, passes[0].sim)
		}
		if r.cfg.trace || (n >= 3 && elapsed+p.total/2 >= r.cfg.seconds) {
			break
		}
	}
	var passS, opS []float64
	for _, p := range passes {
		passS = append(passS, p.total)
		opS = append(opS, p.opSeconds...)
	}
	r.e2e["pass_s"] = summarize(passS, 1)
	sim := single(passes[0].sim)
	sim.N = len(passes)
	r.e2e["sim_seconds"] = sim
	jobs := single(float64(len(opS)) / elapsed)
	jobs.N = len(opS)
	r.e2e["jobs_per_s"] = jobs

	if r.cfg.trace {
		tp := lw.pass(r, in, true, len(passes)+1)
		overhead := tp.total/passes[0].total - 1
		if err := runProbes(r, probeInput{g: in.g, machine: in.machine, profile: lw.profile, backend: lw.backend, params: in.params}); err != nil {
			return err
		}
		r.layer["host.trace_overhead_share"] = single(overhead)
	}
	r.e2e["peak_rss_mb"] = single(vmHWM(os.Getpid()))
	return nil
}
