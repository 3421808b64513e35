package frameworks

import (
	"fmt"
	"slices"
	"strings"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
)

// Plan is one kernel execution: what runs (profile, app, runtime options,
// parameters) over which graph view. Validate is the only place a job is
// refused and Run the only path that builds what a job runs on — the
// serving layer, the harness, the facade and the Run*OnOpts forwards all
// execute through it.
//
// The view is the Overlay when one is set (Graph, if also set, must be its
// base), otherwise the CSR Graph. Shards > 0 partitions Graph into that
// many BSP workers (internal/shard), reusing Partition when the caller
// already built it.
type Plan struct {
	Profile Profile
	App     string
	// Opts configures the runtime of an unsharded run; a sharded run reads
	// only Threads (per shard worker) and Backend.
	Opts   core.Options
	Params Params

	Graph     *graph.Graph
	Overlay   *graph.Overlay
	Shards    int
	Partition *graph.Partition

	// Incremental runs cc or pr seeded from Seed when Delta is the batch
	// that turned Seed's graph into this view, small enough, and (for cc)
	// insert-only and within the profile's capabilities; otherwise it runs
	// the full kernel. Either way the outputs are bitwise a full
	// recompute's, and Run returns the Seed the next epoch resumes from.
	Incremental bool
	Seed        *Seed
	Delta       *graph.Delta
}

// Plan returns the plan of running app under p on the CSR graph g, with the
// profile's runtime options for threads virtual threads.
func (p Profile) Plan(g *graph.Graph, app string, threads int, params Params) Plan {
	return Plan{Profile: p, App: app, Opts: p.Options(app, threads), Params: params, Graph: g}
}

// Validate refuses a plan no kernel can run, before anything is built or
// charged. Each error names the Plan field at fault, and no plan it accepts
// reaches a kernel's panic assertion.
func (pl Plan) Validate() error {
	refuse := func(field, format string, args ...any) error {
		return fmt.Errorf("frameworks: %s: %s", field, fmt.Sprintf(format, args...))
	}
	if !slices.Contains(Apps(), pl.App) {
		return refuse("App", "unknown app %q (have %s)", pl.App, strings.Join(Apps(), ", "))
	}
	if !pl.Profile.Supports(pl.App) {
		return refuse("Profile", "%s does not implement %s", pl.Profile.Name, pl.App)
	}
	g, view := pl.Graph, "Graph"
	if pl.Overlay != nil {
		if g != nil && g != pl.Overlay.Base() {
			return refuse("Graph", "is not the overlay's base")
		}
		g, view = pl.Overlay.Base(), "Overlay"
	}
	if g == nil {
		return refuse("Graph", "no graph view (set Graph or Overlay)")
	}
	if !pl.Profile.CanLoad(g) {
		return refuse(view, "%s cannot load %d nodes (signed 32-bit node IDs)", pl.Profile.Name, g.NumNodes())
	}
	transpose := pl.App == "cc" || pl.App == "pr" || pl.App == "kcore"
	sharded := pl.Shards > 0
	switch {
	case pl.Incremental && pl.App != "cc" && pl.App != "pr":
		return refuse("Incremental", "%s has no incremental variant (cc and pr only)", pl.App)
	case pl.Shards < 0:
		return refuse("Shards", "negative shard count %d", pl.Shards)
	case !sharded && pl.Partition != nil:
		return refuse("Partition", "set on an unsharded plan")
	case sharded && pl.Incremental:
		return refuse("Incremental", "sharded plans cannot run incrementally")
	case sharded && pl.Overlay != nil:
		return refuse("Overlay", "an overlay view cannot be sharded; checkpoint it into a CSR first")
	case sharded && pl.App == "tc":
		// tc's intersection operator is not a scatter/gather vertex program.
		return refuse("Shards", "%s has no sharded BSP kernel", pl.App)
	case sharded && pl.Partition != nil && pl.Partition.Source() != g:
		return refuse("Partition", "partitions a graph other than Graph")
	// Shard-local graphs alias the source arrays, so nothing can be sealed
	// into them after partitioning.
	case sharded && pl.App == "sssp" && !g.HasWeights():
		return refuse("Graph", "sharded sssp needs weights sealed before partitioning")
	case sharded && transpose && !g.HasIn():
		return refuse("Graph", "sharded %s needs the transpose sealed before partitioning", pl.App)
	case !sharded && pl.App == "sssp" && !pl.Opts.Weighted:
		return refuse("Opts.Weighted", "sssp needs a weighted runtime")
	case !sharded && transpose && !pl.Opts.BothDirections:
		return refuse("Opts.BothDirections", "%s needs the transpose", pl.App)
	// An overlay's delta is derived from its base when applied, so the base
	// cannot be sealed afterwards the way Run seals a CSR view — and a
	// transpose the base gained since has no overlay side to merge with.
	case pl.Overlay != nil && pl.Opts.Weighted && !pl.Overlay.Weighted():
		return refuse("Overlay", "weighted run over a base sealed without weights")
	case pl.Overlay != nil && (pl.Opts.BothDirections || g.HasIn()) && !pl.Overlay.HasIn():
		return refuse("Overlay", "applied before its base's transpose was sealed")
	case int64(pl.Params.Source) >= int64(g.NumNodes()):
		return refuse("Params.Source", "source %d out of range (graph has %d nodes)", pl.Params.Source, g.NumNodes())
	}
	return nil
}

// Run validates the plan, builds its runtime on m (or its shard engine,
// one fresh machine per worker from m's configuration), executes the app
// and releases what it built. A CSR view missing the weights a weighted
// run needs is sealed with DefaultWeightMax/DefaultWeightSeed first. The
// Seed is non-nil exactly for incremental plans.
func (pl Plan) Run(m *memsim.Machine) (*analytics.Result, *Seed, error) {
	if err := pl.Validate(); err != nil {
		return nil, nil, err
	}
	if pl.Shards > 0 {
		part := pl.Partition
		if part == nil {
			var err error
			if part, err = graph.NewPartition(pl.Graph, pl.Shards); err != nil {
				return nil, nil, err
			}
		}
		e, err := shard.New(part, shard.ServingConfig(m.Config(), pl.Opts.Threads, pl.Opts.Backend))
		if err != nil {
			return nil, nil, err
		}
		defer e.Close()
		return runBSP(e, pl.App, pl.Params), nil, nil
	}
	var r *core.Runtime
	var err error
	if pl.Overlay != nil {
		r, err = core.NewOverlay(m, pl.Overlay, pl.Opts)
	} else {
		if pl.Opts.Weighted && !pl.Graph.HasWeights() {
			pl.Graph.AddRandomWeights(DefaultWeightMax, DefaultWeightSeed)
		}
		r, err = core.New(m, pl.Graph, pl.Opts)
	}
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	if pl.Incremental {
		return pl.runIncremental(r)
	}
	res, err := pl.Profile.Run(r, pl.App, pl.Params)
	return res, nil, err
}

// runBSP is the app→kernel switch of a shard engine. Validate has refused
// tc, the one app without a BSP kernel.
func runBSP(e *shard.Engine, app string, params Params) *analytics.Result {
	switch app {
	case "bfs":
		return e.BFS(params.Source)
	case "sssp":
		return e.SSSP(params.Source)
	case "cc":
		return e.CC()
	case "pr":
		return e.PR(params.prBounds())
	case "kcore":
		return e.KCore(params.K)
	default: // bc
		return e.BC(params.Source)
	}
}

// runIncremental resumes cc or pr from the plan's seed across its delta,
// falling back to a full recompute when there is no usable seed, the delta
// is large (IncrementalMaxDeltaFrac), cc faces deletions (splits are
// inexpressible over merged labels), or the profile lacks the capability
// (GraphIt's DSL has no arbitrary per-vertex operators, so its cc cannot
// chase root pointers; §6.1). The fallback IS a from-scratch run, and the
// incremental kernels guarantee the same outputs.
func (pl Plan) runIncremental(r *core.Runtime) (*analytics.Result, *Seed, error) {
	seed, delta, n := pl.Seed, pl.Delta, r.G.NumNodes()
	largeDelta := delta == nil || int64(delta.Edges())*IncrementalMaxDeltaFrac > r.NumEdges()
	if pl.App == "cc" {
		if largeDelta || delta.HasDeletes || !pl.Profile.ArbitraryOps ||
			seed == nil || len(seed.CCLabels) != n {
			res, err := pl.Profile.Run(r, "cc", pl.Params)
			if err != nil {
				return nil, nil, err
			}
			return res, &Seed{CCLabels: res.Labels}, nil
		}
		res := analytics.CCIncremental(r, seed.CCLabels, delta)
		return res, &Seed{CCLabels: res.Labels}, nil
	}
	tol, rounds := pl.Params.prBounds()
	if largeDelta || seed == nil || seed.PR == nil ||
		len(seed.PR.Ranks) == 0 || len(seed.PR.Ranks[0]) != n {
		res, prSeed := analytics.PageRankRecord(r, tol, rounds)
		return res, &Seed{PR: prSeed}, nil
	}
	res, prSeed := analytics.PageRankIncremental(r, seed.PR, delta, tol, rounds)
	return res, &Seed{PR: prSeed}, nil
}

// --- Forwards kept for the repo benchmark, which compiles against them ---

// withoutSeed drops Run's seed for the non-incremental forwards.
func withoutSeed(res *analytics.Result, _ *Seed, err error) (*analytics.Result, error) {
	return res, err
}

// RunOnOpts runs app on the CSR graph g over explicit runtime options.
func (p Profile) RunOnOpts(m *memsim.Machine, g *graph.Graph, app string, opts core.Options, params Params) (*analytics.Result, error) {
	return withoutSeed(Plan{Profile: p, App: app, Opts: opts, Params: params, Graph: g}.Run(m))
}

// RunOverlayOnOpts runs app on an overlay epoch: the runtime charges the
// sealed base exactly as a plain run would plus the overlay's delta entries
// as separate small arrays. Outputs are byte-identical to RunOnOpts over
// ov.Materialize() sealed the same way.
func (p Profile) RunOverlayOnOpts(m *memsim.Machine, ov *graph.Overlay, app string, opts core.Options, params Params) (*analytics.Result, error) {
	return withoutSeed(Plan{Profile: p, App: app, Opts: opts, Params: params, Overlay: ov}.Run(m))
}

// RunIncrementalOnOpts runs an incremental plan on the CSR graph g.
func (p Profile) RunIncrementalOnOpts(m *memsim.Machine, g *graph.Graph, app string, opts core.Options, params Params, seed *Seed, delta *graph.Delta) (*analytics.Result, *Seed, error) {
	return Plan{Profile: p, App: app, Opts: opts, Params: params, Graph: g, Incremental: true, Seed: seed, Delta: delta}.Run(m)
}

// RunIncrementalOverlayOnOpts runs an incremental plan on an overlay epoch.
func (p Profile) RunIncrementalOverlayOnOpts(m *memsim.Machine, ov *graph.Overlay, app string, opts core.Options, params Params, seed *Seed, delta *graph.Delta) (*analytics.Result, *Seed, error) {
	return Plan{Profile: p, App: app, Opts: opts, Params: params, Overlay: ov, Incremental: true, Seed: seed, Delta: delta}.Run(m)
}

// RunShardedOnOpts runs app as BSP supersteps over an existing partition.
// BSP vertex programs are the common denominator every framework can
// express, so the plan runs under Galois, which implements every app.
// Outputs are bitwise identical across shard counts, GOMAXPROCS and
// backends, and a 1-shard run matches the round-based single-machine
// kernel.
func RunShardedOnOpts(machine memsim.MachineConfig, part *graph.Partition, app string, opts core.Options, params Params) (*analytics.Result, error) {
	return withoutSeed(Plan{Profile: Galois, App: app, Opts: opts, Params: params, Graph: part.Source(), Shards: part.Shards(), Partition: part}.Run(memsim.NewMachine(machine)))
}
