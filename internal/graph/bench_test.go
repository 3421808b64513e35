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

// weightedRMAT16 is the sealed input BenchmarkBuildIn and BenchmarkCompress
// start from: RMAT16 with the frameworks' default random weights.
func weightedRMAT16() *graph.Graph {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.AddRandomWeights(64, 0xC0FFEE)
	return g
}

// BenchmarkBuildIn times the weighted transpose of RMAT16, rebuilt each
// iteration on a fresh graph over the same out-direction arrays.
func BenchmarkBuildIn(b *testing.B) {
	g := weightedRMAT16()
	b.ReportAllocs()
	for b.Loop() {
		h := &graph.Graph{OutOffsets: g.OutOffsets, OutEdges: g.OutEdges, OutWeights: g.OutWeights}
		h.BuildIn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumEdges()), "ns/edge")
}

// BenchmarkCompress times both weighted compressed encodings of RMAT16
// (out and in), what sealing a compressed input encodes; ns/edge is per
// encoded edge of either direction.
func BenchmarkCompress(b *testing.B) {
	g := weightedRMAT16()
	g.BuildIn()
	b.ReportAllocs()
	for b.Loop() {
		h := &graph.Graph{OutOffsets: g.OutOffsets, OutEdges: g.OutEdges, OutWeights: g.OutWeights,
			InOffsets: g.InOffsets, InEdges: g.InEdges, InWeights: g.InWeights}
		h.CompressOut()
		h.CompressIn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*g.NumEdges()), "ns/edge")
}

// rowForms returns an RMAT16 graph's in-direction in every adjacency form
// (raw, compressed, and an overlay over the compressed base), with the
// compressed base each form charges against (nil for raw).
func rowForms(b *testing.B) []rowForm {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.BuildIn()
	ups, err := gen.UpdateStream(g, 1, 4096, 7, true)
	if err != nil {
		b.Fatal(err)
	}
	ov, _, err := graph.ApplyOverlay(g, ups[0])
	if err != nil {
		b.Fatal(err)
	}
	return []rowForm{
		{"raw", g.RawIn(), nil},
		{"compressed", g.CompressIn(), g.CompressIn()},
		{"overlay", ov.InAdj(true), g.CompressIn()},
	}
}

type rowForm struct {
	name string
	adj  graph.Adjacency
	z    *graph.CompressedCSR
}

// BenchmarkCursorPrefix is the early-exit pull (bfs's dir-opt rounds): per
// form, each in-row is walked through a Cursor and stopped after v%16
// edges, and the bytes ChargePrefix would stream for that prefix are
// sized — Consumed edges on the raw form, PrefixBytes of them over a
// compressed base.
func BenchmarkCursorPrefix(b *testing.B) {
	for _, c := range rowForms(b) {
		b.Run(c.name, func(b *testing.B) {
			var edges, bytes int64
			b.ReportAllocs()
			for b.Loop() {
				for v := range c.adj.NumNodes() {
					cur := c.adj.Cursor(graph.Node(v))
					for k := v % 16; k > 0; k-- {
						if _, ok := cur.Next(); !ok {
							break
						}
						edges++
					}
					if c.z != nil {
						bytes += c.z.PrefixBytes(graph.Node(v), cur.Consumed())
					} else {
						bytes += 4 * cur.Consumed()
					}
				}
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds()/1e6, "Medges/s")
			b.ReportMetric(float64(bytes)/float64(b.N)/1e6, "MB/op")
		})
	}
}
