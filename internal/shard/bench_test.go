package shard_test

import (
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
)

// BenchmarkShardKernels times whole sharded bfs, cc and pr runs on RMAT16
// over 4 shards of 24 virtual threads each, under both storage backends,
// and bfs and cc over the paper's largest cluster, 256 hosts of 48 threads
// (shard.ClusterConfig), on a small web crawl, where a superstep's barrier
// work is spread over many shards and threads. Each engine is built once
// per case and reused across iterations, as a server reuses it across the
// kernels of one request, so allocs/op is what the superstep drivers
// allocate.
func BenchmarkShardKernels(b *testing.B) {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.AddRandomWeights(frameworks.DefaultWeightMax, frameworks.DefaultWeightSeed)
	g.BuildIn()
	part, err := graph.NewPartition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	params := frameworks.DefaultParams(g)
	machine := memsim.Scaled(memsim.OptaneMachine(), 32)
	for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
		e, err := shard.New(part, shard.ServingConfig(machine, 24, backend))
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range []string{"bfs", "cc", "pr"} {
			b.Run(backend.String()+"/"+app, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					runKernel(e, app, params)
				}
			})
		}
		e.Close()
	}

	crawl := gen.WebCrawl(20000, 5, 40, 17)
	crawl.BuildIn()
	part, err = graph.NewPartition(crawl, 256)
	if err != nil {
		b.Fatal(err)
	}
	e, err := shard.New(part, shard.ClusterConfig(256, gen.ScaleSmall.Div()))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	params = frameworks.DefaultParams(crawl)
	for _, app := range []string{"bfs", "cc"} {
		b.Run("cluster256/"+app, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				runKernel(e, app, params)
			}
		})
	}
}
