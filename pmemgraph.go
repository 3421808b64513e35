// Package pmemgraph is the public facade of this repository: a Go
// reproduction of "Single Machine Graph Analytics on Massive Datasets
// Using Intel Optane DC Persistent Memory" (Gill, Dathathri, Hoang, Peri,
// Pingali — VLDB 2020).
//
// Because Optane DC Persistent Memory hardware is no longer available, the
// library pairs a deterministic memory-hierarchy simulator (NUMA,
// DRAM-as-cache "near-memory", TLBs, page migration — internal/memsim)
// with a Galois-style analytics runtime (internal/core), a unified
// EdgeMap/VertexMap operator engine (internal/engine), the paper's seven
// benchmarks as engine configurations spanning the §5 algorithmic variants
// (internal/analytics), the four framework profiles of §6.1 expressed as
// engine parameters (internal/frameworks), a sharded BSP engine that both
// serves partitioned jobs and emulates the paper's D-Galois cluster
// (internal/shard) and a GridGraph out-of-core simulator
// (internal/oocsim). See DESIGN.md for the full architecture; the tables
// and figures themselves are regenerated by cmd/pmembench (see
// Experiments for the list).
//
// Quick start:
//
//	g, _ := pmemgraph.GenerateInput("clueweb12", pmemgraph.ScaleSmall)
//	sys := pmemgraph.NewSystem(pmemgraph.OptanePMM, pmemgraph.ScaleSmall)
//	res, err := sys.Run(g, "bfs", 96)
//	fmt.Printf("bfs took %.4f simulated seconds over %d rounds\n", res.Seconds, res.Rounds)
package pmemgraph

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/bench"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Re-exported core types.
type (
	// Graph is the CSR graph shared by all engines.
	Graph = graph.Graph
	// Node is a vertex identifier.
	Node = graph.Node
	// Result reports one kernel execution (simulated seconds, rounds,
	// hardware counters, and the app's output).
	Result = analytics.Result
	// Scale selects the reproduction scale (ScaleFull for the paper
	// harness, ScaleSmall for quick runs).
	Scale = gen.Scale
)

// Reproduction scales.
const (
	ScaleFull  = gen.ScaleFull
	ScaleSmall = gen.ScaleSmall
)

// MachineKind selects a simulated platform from §3 of the paper.
type MachineKind int

const (
	// OptanePMM is the 2-socket, 6 TB Optane machine in memory mode.
	OptanePMM MachineKind = iota
	// DDR4DRAM is the same machine with PMM parked (DRAM main memory).
	DDR4DRAM
	// Entropy is the 4-socket 1.5 TB DRAM control machine.
	Entropy
)

// System is a simulated machine ready to run benchmarks under the Galois
// profile (the paper's recommended configuration).
type System struct {
	cfg   memsim.MachineConfig
	scale Scale
}

// NewSystem builds a simulated platform at the given scale.
func NewSystem(kind MachineKind, scale Scale) *System {
	var cfg memsim.MachineConfig
	switch kind {
	case DDR4DRAM:
		cfg = memsim.DRAMMachine()
	case Entropy:
		cfg = memsim.EntropyMachine()
	default:
		cfg = memsim.OptaneMachine()
	}
	return &System{cfg: memsim.Scaled(cfg, scale.Div()), scale: scale}
}

// Apps returns the benchmark names: bc, bfs, cc, kcore, pr, sssp, tc.
func Apps() []string { return frameworks.Apps() }

// Run executes one benchmark on g with the paper's best (Galois)
// configuration and algorithms, returning the simulated result.
func (s *System) Run(g *Graph, app string, threads int) (*Result, error) {
	return s.RunAs(frameworks.Galois.Name, g, app, threads)
}

// RunAs executes a benchmark under one of the paper's framework profiles:
// "Galois", "GAP", "GBBS" or "GraphIt".
func (s *System) RunAs(framework string, g *Graph, app string, threads int) (*Result, error) {
	p, ok := frameworks.ByName(framework)
	if !ok {
		return nil, fmt.Errorf("pmemgraph: unknown framework %q", framework)
	}
	res, _, err := p.Plan(g, app, threads, frameworks.DefaultParams(g)).Run(memsim.NewMachine(s.cfg))
	if err != nil {
		return nil, fmt.Errorf("pmemgraph: %w", err)
	}
	return res, nil
}

// GenerateInput builds the scaled stand-in for one of the paper's Table 3
// inputs: kron30, clueweb12, uk14, iso_m100, rmat32 or wdc12. The graph is
// returned sealed (default weights and the transpose), so every app runs
// on it under every framework and no run changes it.
func GenerateInput(name string, scale Scale) (*Graph, error) {
	g, _, err := gen.Input(name, scale)
	if err != nil {
		return nil, err
	}
	frameworks.Seal(g)
	return g, nil
}

// InputNames lists the Table 3 inputs.
func InputNames() []string { return gen.InputNames() }

// Experiments lists the regenerable tables and figures.
func Experiments() []string { return bench.Experiments() }
