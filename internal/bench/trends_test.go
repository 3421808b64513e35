package bench

import (
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
)

// Paper-trend conformance: the qualitative Figure 7/9 claims as plain
// `go test` assertions over ScaleSmall inputs, so the trends survive every
// future change to the simulator or kernels — not just when someone eyeballs
// a regenerated figure. Graphs are generated fresh per test (the shared
// harness cache mutates inputs with weights/transposes).

// TestDirOptBeatsPushOnLowDiameter encodes Figure 7a's low-diameter half:
// direction-optimizing bfs must beat the push-only dense vertex program on
// a low-diameter power-law input (rmat32's stand-in), where pull rounds
// skip most of the frontier's edges.
func TestDirOptBeatsPushOnLowDiameter(t *testing.T) {
	g, _, err := gen.Input("rmat32", gen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.MaxOutDegreeNode()
	machine := optaneMachine(gen.ScaleSmall)

	newRT := func(both bool) *core.Runtime {
		o := core.GaloisDefaults(96)
		o.BothDirections = both
		r := core.MustNew(memsim.NewMachine(machine), g, o)
		t.Cleanup(r.Close)
		return r
	}
	g.BuildIn() // settle the shared graph before either run
	dirOpt := analytics.BFSDirOpt(newRT(true), src)
	push := analytics.BFSDense(newRT(true), src)
	if dirOpt.Seconds >= push.Seconds {
		t.Errorf("dir-opt bfs (%.4fs) should beat push-only dense bfs (%.4fs) on low-diameter rmat32",
			dirOpt.Seconds, push.Seconds)
	}
}

// TestGaloisBeatsGraphItOnHighDiameterBFS encodes the Figure 9 framework
// ordering on its high-diameter half: Galois (sparse worklists, explicit
// huge pages, needed directions) must finish simulated bfs no slower than
// GraphIt (dense-only worklists, THP, both directions) on the clueweb12
// stand-in.
func TestGaloisBeatsGraphItOnHighDiameterBFS(t *testing.T) {
	g, _, err := gen.Input("clueweb12", gen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIn() // settle: GraphIt's profile builds the transpose anyway
	params := frameworks.DefaultParams(g)
	machine := optaneMachine(gen.ScaleSmall)

	galois, _, err := frameworks.Galois.Plan(g, "bfs", 96, params).Run(memsim.NewMachine(machine))
	if err != nil {
		t.Fatal(err)
	}
	graphit, _, err := frameworks.GraphIt.Plan(g, "bfs", 96, params).Run(memsim.NewMachine(machine))
	if err != nil {
		t.Fatal(err)
	}
	if galois.Seconds > graphit.Seconds {
		t.Errorf("Galois bfs (%.4fs) should be no slower than GraphIt (%.4fs) on high-diameter clueweb12",
			galois.Seconds, graphit.Seconds)
	}
}

// TestMemoryModeBeatsUncachedOptaneOnPR encodes the premise under Figures
// 7/8 and Table 5: Optane in memory mode (DRAM as a near-memory cache)
// must beat the same workload running directly against uncached Optane
// media (app-direct placement) — here on pagerank, the most bandwidth-
// bound kernel. The input is kron30, whose footprint (~1/3 of near-memory)
// the DRAM cache holds almost entirely; at clueweb12's ~95% footprint the
// direct-mapped cache degrades toward media speed, which is the paper's
// conflict-miss finding, not this test's claim.
func TestMemoryModeBeatsUncachedOptaneOnPR(t *testing.T) {
	g, _, err := gen.Input("kron30", gen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	g.BuildIn()
	const rounds = 8

	mm := core.GaloisDefaults(96)
	mm.BothDirections = true
	rMM := core.MustNew(memsim.NewMachine(optaneMachine(gen.ScaleSmall)), g, mm)
	t.Cleanup(rMM.Close)
	cached := analytics.PageRank(rMM, 0, rounds)

	ad := core.GaloisDefaults(96)
	ad.BothDirections = true
	ad.AppDirect = true
	rAD := core.MustNew(memsim.NewMachine(memsim.Scaled(memsim.AppDirectMachine(), gen.ScaleSmall.Div())), g, ad)
	t.Cleanup(rAD.Close)
	uncached := analytics.PageRank(rAD, 0, rounds)

	if cached.Seconds >= uncached.Seconds {
		t.Errorf("memory-mode pr (%.4fs) should beat uncached app-direct Optane pr (%.4fs)",
			cached.Seconds, uncached.Seconds)
	}
}

// TestShardSpeedupTrend pins the figShard claim: on a low-diameter input
// (kron30, wide frontiers) sharded BSP bfs at 8 shards must finish in at
// most half the simulated time of the identical kernel at 1 shard — the
// partitioned compute has to dominate the exchange term, or the sharded
// execution path buys a serving deployment nothing.
func TestShardSpeedupTrend(t *testing.T) {
	g, _, err := gen.Input("kron30", gen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.MaxOutDegreeNode()
	machine := optaneMachine(gen.ScaleSmall)

	run := func(shards int) float64 {
		part, err := graph.NewPartition(g, shards)
		if err != nil {
			t.Fatal(err)
		}
		e, err := shard.New(part, shard.ServingConfig(machine, 16, core.BackendRaw))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e.BFS(src).Seconds
	}

	one := run(1)
	eight := run(8)
	if eight*2 > one {
		t.Errorf("8-shard bfs (%.4fs) should be at least 2x faster than 1 shard (%.4fs) on kron30",
			eight, one)
	}
}
