package engine_test

import (
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// benchEngine builds an engine over an RMAT16 graph with its transpose, on
// a 96-thread Optane machine, under the given backend.
func benchEngine(b *testing.B, backend core.Backend, cfg engine.Config) *engine.Engine {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.BuildIn()
	opts := core.GaloisDefaults(96)
	opts.BothDirections = true
	opts.Backend = backend
	r, err := core.New(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	return engine.New(r, cfg)
}

// reportPerEdge reports host ns per edge the rounds visited.
func reportPerEdge(b *testing.B, edgesPerRound int64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edgesPerRound)/float64(b.N), "ns/edge")
}

// BenchmarkPushSparseRound times one Galois sparse push round over the raw
// backend: every 64th vertex of RMAT16 scatters along its out-row, claiming
// about one neighbor in 16 by a fixed label test, then the claims merge
// into the next frontier. The frontier and labels never change, so
// every iteration does the same work.
func BenchmarkPushSparseRound(b *testing.B) {
	e := benchEngine(b, core.BackendRaw, engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush})
	n := e.R.NumNodes()
	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(v) * 2654435761
	}
	var vs []graph.Node
	var edges int64
	for v := 0; v < n; v += 64 {
		vs = append(vs, graph.Node(v))
		edges += e.R.OutDegree(graph.Node(v))
	}
	f := e.SparseFrontier(vs)
	labels := e.R.NodeArray("bench.label", 4)
	args := engine.EdgeMapArgs{
		Push:    func(u, d graph.Node, ei int64) bool { return (label[d]^label[u])&15 == 0 },
		PerEdge: []engine.Access{{Arr: labels, Write: true}},
	}
	e.EdgeMap(f, args)
	b.ReportAllocs()
	for b.Loop() {
		e.EdgeMap(f, args)
	}
	reportPerEdge(b, edges)
}

// BenchmarkGatherRound times one Gather round over the compressed backend:
// every vertex of RMAT16 sums a per-vertex value over its whole in-row, the
// shape of pagerank's pull.
func BenchmarkGatherRound(b *testing.B) {
	e := benchEngine(b, core.BackendCompressed, engine.Config{Rep: engine.RepDense, Dir: engine.DirPull})
	n := e.R.NumNodes()
	contrib := make([]float64, n)
	for v := range contrib {
		contrib[v] = 1 / float64(v+1)
	}
	sum := make([]float64, n)
	contribArr := e.R.NodeArray("bench.contrib", 8)
	args := engine.EdgeMapArgs{
		Gather: func(v graph.Node, in []graph.Node) {
			acc := 0.0
			for _, u := range in {
				acc += contrib[u]
			}
			sum[v] = acc
		},
		PerEdge: []engine.Access{{Arr: contribArr}},
	}
	full := e.FullFrontier()
	e.EdgeMap(full, args)
	b.ReportAllocs()
	for b.Loop() {
		e.EdgeMap(full, args)
	}
	reportPerEdge(b, e.R.NumEdges())
}
