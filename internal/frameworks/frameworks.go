// Package frameworks encodes the four shared-memory graph frameworks the
// paper evaluates — Galois, GAP, GBBS (Ligra) and GraphIt — as constraint
// profiles over the core runtime and the shared operator-engine kernels
// (§6.1). A profile is not a table of kernel variants: it is a set of
// capabilities translated into engine parameters (frontier representation,
// direction policy, conversion threshold) and runtime options (pages,
// NUMA, edge directions), under which the one kernel per app specializes
// into the behavior the paper measured:
//
//	               Galois      GAP         GBBS        GraphIt
//	pages          2MB expl.   4KB+THP     4KB+THP     4KB+THP
//	NUMA           app-chosen  numactl     numactl     numactl
//	directions     as needed   both        both        both
//	worklists      sparse+dense dense      dense       dense
//	programs       non-vertex  vertex      vertex      vertex only
//	buckets        OBIM        yes         Julienne    no
//	sssp           delta-step  delta-step  delta-step  Bellman-Ford
//	cc             LP-shortcut ptr-jump    ptr-jump    label prop
//	bc             sparse      dense       dense       (missing)
//	kcore          sparse peel (missing)   dense peel  (missing)
//
// GAP and GraphIt additionally store node IDs in signed 32-bit ints and
// cannot load graphs with more than 2^31-1 nodes (the paper omits wdc12
// for them); the profile records that limit so the harness can reproduce
// the omission.
//
// This is the dispatch layer between the serving layer / harness above
// and the kernels below. Every job is a Plan: Plan.Validate is the one
// place a job is refused, and Plan.Run is the one path that builds a
// runtime or shard engine and dispatches to a kernel. It charges nothing
// itself (what Run builds charges through core/engine/shard), and a run
// inherits the engine's determinism — Plan.Run is a pure function of
// (machine config, plan), including incremental plans, whose outputs are
// bitwise those of a full recompute whether they run seeded or fall back.
package frameworks

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Profile describes one framework's constraints. A profile is executed by
// translating these capabilities into operator-engine parameters (frontier
// representation, direction policy, conversion threshold — see Engine)
// plus runtime options (pages, NUMA, directions — see Options); the
// kernels themselves are shared.
type Profile struct {
	Name string

	// ExplicitHugePages: Galois allocates 2 MB pages itself; the others
	// use 4 KB pages and rely on THP.
	ExplicitHugePages bool
	// AppNUMA: the framework chooses NUMA policy per allocation; false
	// means everything is numactl-interleaved.
	AppNUMA bool
	// BothDirections: allocates in- and out-edges regardless of need.
	BothDirections bool
	// SparseWorklists: supports Galois-style sparse worklists (and with
	// them asynchronous data-driven algorithms). Frameworks without them
	// run every frontier as a dense bit-vector.
	SparseWorklists bool
	// NonVertexPrograms: operators may touch arbitrary neighborhoods
	// (label-chain shortcutting, asynchronous scheduling).
	NonVertexPrograms bool
	// BucketedWorklists: ordered (priority-bucketed) scheduling is
	// expressible, enabling delta-stepping sssp. True for Galois (OBIM),
	// GAP and GBBS (Julienne-style buckets); GraphIt's DSL cannot
	// express it (§6.1).
	BucketedWorklists bool
	// ArbitraryOps: operators may perform per-vertex memory operations
	// beyond neighbor reductions (pointer jumping for cc). True for the
	// library frameworks; false for the GraphIt DSL.
	ArbitraryOps bool
	// Signed32NodeIDs caps loadable graphs at 2^31-1 nodes.
	Signed32NodeIDs bool
	// DenseFrac overrides the engine's frontier-conversion and
	// direction-switch threshold |E|/20 (0 = default).
	DenseFrac int64

	// Apps lists the supported benchmarks.
	Apps map[string]bool
}

// Engine translates the profile into operator-engine parameters: frontier
// representation (sparse-capable frameworks auto-convert, the rest are
// dense-only), direction-optimizing traversal (available everywhere; it
// degrades to push when the runtime holds no transpose), and the
// conversion threshold.
func (p Profile) Engine() engine.Config {
	cfg := engine.Config{Dir: engine.DirAuto, DenseFrac: p.DenseFrac, PullFrac: p.DenseFrac}
	if p.SparseWorklists {
		cfg.Rep = engine.RepAuto
	} else {
		cfg.Rep = engine.RepDense
	}
	return cfg
}

// The paper's four frameworks.
var (
	Galois = Profile{
		Name:              "Galois",
		ExplicitHugePages: true,
		AppNUMA:           true,
		SparseWorklists:   true,
		NonVertexPrograms: true,
		BucketedWorklists: true,
		ArbitraryOps:      true,
		Apps:              appSet("bc", "bfs", "cc", "kcore", "pr", "sssp", "tc"),
	}
	GAP = Profile{
		Name:              "GAP",
		BothDirections:    true,
		BucketedWorklists: true,
		ArbitraryOps:      true,
		Signed32NodeIDs:   true,
		Apps:              appSet("bc", "bfs", "cc", "pr", "sssp", "tc"),
	}
	GBBS = Profile{
		Name:              "GBBS",
		BothDirections:    true,
		BucketedWorklists: true,
		ArbitraryOps:      true,
		Apps:              appSet("bc", "bfs", "cc", "kcore", "pr", "sssp", "tc"),
	}
	GraphIt = Profile{
		Name:            "GraphIt",
		BothDirections:  true,
		Signed32NodeIDs: true,
		Apps:            appSet("bfs", "cc", "pr", "sssp", "tc"),
	}
)

// All returns the four profiles in the paper's presentation order.
func All() []Profile { return []Profile{GraphIt, GAP, GBBS, Galois} }

// ByName returns the profile with the given name (exact match against
// "Galois", "GAP", "GBBS", "GraphIt"), used by callers that address
// frameworks as strings (the serving layer, the facade's RunAs).
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

func appSet(apps ...string) map[string]bool {
	m := make(map[string]bool, len(apps))
	for _, a := range apps {
		m[a] = true
	}
	return m
}

// Supports reports whether the framework implements app.
func (p Profile) Supports(app string) bool { return p.Apps[app] }

// CanLoad reports whether the framework can load g (the 32-bit node ID
// limitation).
func (p Profile) CanLoad(g *graph.Graph) bool {
	return !p.Signed32NodeIDs || int64(g.NumNodes()) <= (1<<31)-1
}

// Options builds the core runtime options this framework uses for app.
// Galois picks per-app policies (§6.1: interleaved for bfs/cc/sssp,
// blocked for bc/pr, needed directions only); the others always use OS
// interleave, small pages with THP, and both directions.
func (p Profile) Options(app string, threads int) core.Options {
	opts := core.Options{
		Threads:        threads,
		GraphPolicy:    memsim.Interleaved,
		NodePolicy:     memsim.Interleaved,
		BothDirections: p.BothDirections,
		Weighted:       app == "sssp",
	}
	if p.ExplicitHugePages {
		opts.PageSize = memsim.PageHuge
	} else {
		opts.PageSize = memsim.PageSmall
		opts.THP = true
	}
	if p.AppNUMA {
		switch app {
		case "bc", "pr":
			opts.GraphPolicy = memsim.Blocked
			opts.NodePolicy = memsim.Blocked
		}
	}
	// Apps that structurally need the transpose regardless of framework.
	switch app {
	case "pr", "kcore", "cc":
		// cc: label propagation (plain or LP-shortcut) flows both ways.
		opts.BothDirections = true
	case "bfs":
		if !p.SparseWorklists {
			opts.BothDirections = true // direction-optimizing
		}
	}
	return opts
}

// DefaultWeightMax and DefaultWeightSeed are the parameters of the
// pseudo-random edge weights added to unweighted inputs for sssp (§3:
// "all graphs are unweighted, so we generate random weights"). They are
// exported so graph owners that pre-materialize weights (the serving
// layer's registry seals graphs before sharing them across concurrent
// jobs) produce exactly the weights Plan.Run would have added lazily.
const (
	DefaultWeightMax  = 64
	DefaultWeightSeed = 0xC0FFEE
)

// Params carries per-app parameters for Run.
type Params struct {
	Source graph.Node // bc, bfs, sssp
	Delta  uint32     // sssp delta-stepping bucket width
	K      int64      // kcore threshold
	Tol    float64    // pr tolerance
	Rounds int        // pr max rounds
}

// prBounds returns the pr tolerance and round cap, the paper's defaults (§3)
// standing in for non-positive values. Every pr path — single-runtime,
// incremental, sharded — reads them here and the kernels take them
// literally, so the same Params mean the same run on all three.
func (p Params) prBounds() (tol float64, rounds int) {
	tol, rounds = p.Tol, p.Rounds
	if tol <= 0 {
		tol = analytics.PRDefaultTolerance
	}
	if rounds <= 0 {
		rounds = analytics.PRDefaultMaxRounds
	}
	return tol, rounds
}

// DefaultParams fills the paper's defaults (§3) adjusted for a given
// graph: source = max out-degree node, k scaled to the input's density.
func DefaultParams(g *graph.Graph) Params {
	src, _ := g.MaxOutDegreeNode()
	return defaultParams(src, g.NumNodes(), g.NumEdges())
}

// DefaultParamsOverlay is DefaultParams computed on an overlay epoch's
// merged view (same tie rule for the source pick, merged edge count for
// the density scaling), so a job on an overlay epoch and on the same
// epoch rebuilt from scratch default to identical parameters.
func DefaultParamsOverlay(ov *graph.Overlay) Params {
	src, _ := ov.MaxOutDegreeNode()
	return defaultParams(src, ov.NumNodes(), ov.NumEdges())
}

func defaultParams(src graph.Node, nodes int, edges int64) Params {
	avg := int64(1)
	if nodes > 0 {
		avg = edges / int64(nodes)
	}
	k := int64(analytics.KCoreDefaultK)
	// The paper's k=100 is ~2-6x the average degree of its inputs;
	// scaled inputs keep that ratio.
	if scaled := 3 * avg; scaled < k {
		k = scaled
	}
	if k < 2 {
		k = 2
	}
	return Params{
		Source: src,
		Delta:  64,
		K:      k,
		Tol:    analytics.PRDefaultTolerance,
		Rounds: analytics.PRDefaultMaxRounds,
	}
}

// Run is the app→kernel switch of a single runtime: it executes app under
// this framework's constraints on r. The profile reaches the shared
// kernels as engine parameters (p.Engine()) plus the capability flags that
// gate whole algorithm families — there is no per-framework kernel-variant
// table. Plan.Run dispatches through it after Plan.Validate; a direct
// caller must have built r with p.Options(app, threads) for an app p
// implements, over a graph p can load.
func (p Profile) Run(r *core.Runtime, app string, params Params) (*analytics.Result, error) {
	cfg := p.Engine()
	switch app {
	case "bfs":
		return analytics.BFS(r, cfg, params.Source), nil
	case "sssp":
		if p.BucketedWorklists {
			return analytics.SSSPDeltaStep(r, params.Source, params.Delta), nil
		}
		// Without priority buckets the only expressible sssp is
		// bulk-synchronous Bellman-Ford (§6.1).
		return analytics.SSSPBellmanFord(r, cfg, params.Source), nil
	case "cc":
		switch {
		case p.NonVertexPrograms:
			return analytics.CCLabelProp(r, cfg, true), nil
		case p.ArbitraryOps:
			return analytics.CCPointerJump(r), nil
		default:
			return analytics.CCLabelProp(r, cfg, false), nil
		}
	case "pr":
		tol, rounds := params.prBounds()
		return analytics.PageRank(r, tol, rounds), nil
	case "bc":
		return analytics.Brandes(r, cfg, params.Source), nil
	case "kcore":
		return analytics.KCore(r, cfg, params.K), nil
	case "tc":
		return analytics.TC(r), nil
	default:
		return nil, fmt.Errorf("frameworks: unknown app %q", app)
	}
}

// Apps returns the paper's benchmark names in presentation order.
func Apps() []string { return []string{"bc", "bfs", "cc", "kcore", "pr", "sssp", "tc"} }

// --- Incremental execution (streaming updates) ---

// IncrementalMaxDeltaFrac declares an update batch "large" once its
// operation count exceeds |E|/IncrementalMaxDeltaFrac; large deltas fall
// back to full recomputation (the incremental machinery would touch most
// of the graph anyway).
const IncrementalMaxDeltaFrac = 10

// Seed carries the prior-epoch artifacts an incremental run resumes from:
// converged component labels for cc, the recorded rank trajectory for pr.
// Seeds are produced by every incremental Plan.Run (fallback runs record
// one too), so epochs chain: each run seeds the next.
type Seed struct {
	CCLabels []uint32
	PR       *analytics.PRSeed
}

// Bytes estimates the seed's resident footprint, the quantity the serving
// layer's bounded seed store evicts on.
func (s *Seed) Bytes() int64 {
	if s == nil {
		return 0
	}
	total := int64(4 * len(s.CCLabels))
	if s.PR != nil {
		for _, r := range s.PR.Ranks {
			total += int64(8 * len(r))
		}
	}
	return total
}
