package engine_test

import (
	"sync/atomic"
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
// backend: every 64th vertex of RMAT16 runs a row program over its out-row,
// claiming about one neighbor in 16 by a fixed label test, then the claims
// merge into the next frontier. The frontier and labels never change, so
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
		PushRow: func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
			lu := label[u]
			for _, d := range row {
				if (label[d]^lu)&15 == 0 {
					claims = append(claims, d)
				}
			}
			return claims
		},
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
		Gather: func(lo, hi graph.Node, in engine.Rows) {
			for v := lo; v < hi; v++ {
				acc := 0.0
				for _, u := range in.Row(v) {
					acc += contrib[u]
				}
				sum[v] = acc
			}
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

// BenchmarkSmallFrontierBFS times a whole Galois bfs (sparse worklists,
// direction-optimizing) on a small high-diameter web crawl, in host ns per
// round: hundreds of rounds with a handful of vertices each, so the fixed
// cost of a round and of its memsim regions dominates, as on crawl_sparse.
func BenchmarkSmallFrontierBFS(b *testing.B) {
	g := gen.WebCrawl(1<<14, 8, 260, 12)
	g.BuildIn()
	opts := core.GaloisDefaults(96)
	opts.BothDirections = true
	r, err := core.New(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), g, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(r.Close)
	e := engine.New(r, engine.Config{Rep: engine.RepSparse, Dir: engine.DirAuto})
	dist := make([]atomic.Uint32, g.NumNodes())
	distArr := r.NodeArray("bench.dist", 4)
	const unseen = ^uint32(0)
	bfs := func() int {
		for v := range dist {
			dist[v].Store(unseen)
		}
		dist[0].Store(0)
		rounds := 0
		for f := e.NewFrontier(0); !f.Empty(); {
			rounds++
			level, cur := uint32(rounds), f
			f = e.EdgeMap(f, engine.EdgeMapArgs{
				PushRow: func(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
					for _, d := range row {
						if dist[d].Load() == unseen && dist[d].CompareAndSwap(unseen, level) {
							claims = append(claims, d)
						}
					}
					return claims
				},
				PullRow: func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
					for k, u := range row {
						if cur.Has(u) {
							dist[v].Store(level)
							return true, true, k + 1
						}
					}
					return false, false, len(row)
				},
				PullCond:    func(v graph.Node) bool { return dist[v].Load() == unseen },
				PerEdge:     []engine.Access{{Arr: distArr, Write: true}},
				PullSeqRead: []*memsim.Array{distArr},
				PullPerEdge: []engine.Access{},
			})
		}
		return rounds
	}
	bfs()
	b.ReportAllocs()
	rounds := 0
	for b.Loop() {
		rounds += bfs()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}
