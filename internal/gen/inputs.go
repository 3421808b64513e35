package gen

import (
	"fmt"

	"pmemgraph/internal/graph"
)

// PaperRow records the Table 3 row for one of the paper's inputs, used by
// the harness to print paper-vs-reproduction property tables.
type PaperRow struct {
	Name        string
	Nodes       int64 // |V|, paper
	Edges       int64 // |E|, paper
	AvgDegree   int
	EstDiameter int
	SizeGB      float64
	// FitsInDRAM mirrors §3: kron30 and clueweb12 fit in the 384 GB of
	// DRAM; uk14, rmat32, iso_m100 and wdc12 do not.
	FitsInDRAM bool
	// Diameter class drives the §5 algorithm findings.
	HighDiameter bool
}

// PaperInputs lists the paper's six inputs in Table 3 order.
func PaperInputs() []PaperRow {
	return []PaperRow{
		{Name: "kron30", Nodes: 1073e6, Edges: 10791e6, AvgDegree: 16, EstDiameter: 6, SizeGB: 136, FitsInDRAM: true},
		{Name: "clueweb12", Nodes: 978e6, Edges: 42574e6, AvgDegree: 44, EstDiameter: 498, SizeGB: 325, FitsInDRAM: true, HighDiameter: true},
		{Name: "uk14", Nodes: 788e6, Edges: 47615e6, AvgDegree: 60, EstDiameter: 2498, SizeGB: 361, HighDiameter: true},
		{Name: "iso_m100", Nodes: 76e6, Edges: 68211e6, AvgDegree: 896, EstDiameter: 83, SizeGB: 509},
		{Name: "rmat32", Nodes: 4295e6, Edges: 68719e6, AvgDegree: 16, EstDiameter: 7, SizeGB: 544},
		{Name: "wdc12", Nodes: 3563e6, Edges: 128736e6, AvgDegree: 36, EstDiameter: 5274, SizeGB: 986, HighDiameter: true},
	}
}

// PaperInput returns the row for name.
func PaperInput(name string) (PaperRow, error) {
	for _, r := range PaperInputs() {
		if r.Name == name {
			return r, nil
		}
	}
	return PaperRow{}, fmt.Errorf("gen: unknown paper input %q", name)
}

// Scale selects how aggressively inputs (and the matching memsim machine
// capacities) are shrunk relative to the paper. ScaleFull is used by the
// experiment harness (cmd/pmembench); ScaleSmall keeps tests and
// `pmembench -quick` runs quick. The divisor composes with the global GB->MB machine scaling
// (memsim.ScaledBytes): footprint ratios against near-memory are preserved
// at either scale.
type Scale int

const (
	// ScaleFull sizes graphs so each one's CSR footprint stands in the
	// same ratio to the scaled machine's near-memory as in the paper.
	ScaleFull Scale = 8
	// ScaleSmall is 4x smaller for quick benchmarks and CI.
	ScaleSmall Scale = 32
)

// Div returns the capacity divisor applied to memsim.ScaledBytes sizes.
func (s Scale) Div() int64 { return int64(s) }

// inputShape holds the generation parameters for one input at ScaleFull;
// ScaleSmall divides node counts by 4.
type inputShape struct {
	nodes  int
	avgDeg int
	build  func(nodes, avgDeg int) *graph.Graph
}

// shapes are sized so CSR bytes (8 per node + 4 per edge) occupy the same
// fraction of the scaled machine's 48 MB near-memory (ScaleFull) as the
// paper input does of 384 GB:
//
//	kron30 ~35%, clueweb12 ~95%, uk14 ~120%, iso_m100 ~133%,
//	rmat32 ~140%, wdc12 ~260%.
func shapes() map[string]inputShape {
	return map[string]inputShape{
		"kron30": {nodes: 1 << 18, avgDeg: 16, build: func(n, d int) *graph.Graph {
			scale := log2(n)
			return Kron(scale, d, 30)
		}},
		"clueweb12": {nodes: 248_000, avgDeg: 44, build: func(n, d int) *graph.Graph {
			return WebCrawl(n, d, 260, 12)
		}},
		"uk14": {nodes: 232_000, avgDeg: 60, build: func(n, d int) *graph.Graph {
			return WebCrawl(n, d, 1200, 14)
		}},
		"iso_m100": {nodes: 79_000, avgDeg: 200, build: func(n, d int) *graph.Graph {
			return Protein(n, d/2, 80, 100)
		}},
		"rmat32": {nodes: 1 << 20, avgDeg: 16, build: func(n, d int) *graph.Graph {
			scale := log2(n)
			return RMAT(scale, d, 0.57, 0.19, 0.19, 32, false)
		}},
		"wdc12": {nodes: 820_000, avgDeg: 36, build: func(n, d int) *graph.Graph {
			return WebCrawl(n, d, 2600, 121)
		}},
	}
}

func log2(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}

// Input generates the scaled stand-in for the named paper input. The result
// is deterministic per (name, scale).
func Input(name string, scale Scale) (*graph.Graph, PaperRow, error) {
	row, err := PaperInput(name)
	if err != nil {
		return nil, PaperRow{}, err
	}
	sh, ok := shapes()[name]
	if !ok {
		return nil, PaperRow{}, fmt.Errorf("gen: no shape for input %q", name)
	}
	nodes := sh.nodes
	if scale != ScaleFull {
		nodes = nodes * int(ScaleFull) / int(scale)
	}
	g := sh.build(nodes, sh.avgDeg)
	return g, row, nil
}

// MustInput is Input that panics on error (unknown name is a programming
// error in the harness).
func MustInput(name string, scale Scale) (*graph.Graph, PaperRow) {
	g, row, err := Input(name, scale)
	if err != nil {
		panic(err)
	}
	return g, row
}

// InputNames returns the Table 3 input names in order.
func InputNames() []string {
	rows := PaperInputs()
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Name
	}
	return names
}
