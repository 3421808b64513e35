package graph_test

import (
	"math/rand/v2"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// BenchmarkFromEdges builds a CSR from a shuffled RMAT-shaped edge list,
// which is what a generator hands FromEdges (the same shape the benchmark
// module's graph.from_edges_medges_s probe times).
func BenchmarkFromEdges(b *testing.B) {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	n := g.NumNodes()
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, d := range g.OutNeighbors(graph.Node(v)) {
			edges = append(edges, graph.Edge{Src: graph.Node(v), Dst: d})
		}
	}
	rnd := rand.New(rand.NewPCG(1, 2))
	rnd.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	b.ReportAllocs()
	for b.Loop() {
		if _, err := graph.FromEdges(n, edges, false, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(edges))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
}
