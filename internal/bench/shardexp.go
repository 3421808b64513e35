package bench

import (
	"fmt"

	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/shard"
	"pmemgraph/internal/stats"
)

// FigShard measures the sharded BSP engine inside one serving machine:
// the same round-based kernels at shard counts 1/2/4/8 over kron30 (the
// low-diameter input, where frontiers are wide enough for partitioned
// compute to dominate the exchange cost). Per row it reports simulated
// time, the exchange share, cross-shard frontier traffic, and the speedup
// against the single-shard run — the scaling story JobRequest.Shards buys
// a serving deployment, and the counterpart of Figure 11's cluster
// numbers at intra-machine exchange costs.
func FigShard(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tApp\tShards\tSim (s)\tComm (s)\tCross-shard MB\tSpeedup vs 1")
	const gname = "kron30"
	const threads = 16
	g, _ := input(gname, opt.Scale)
	params := frameworks.DefaultParams(g)
	apps := []string{"bfs", "cc", "pr"}
	counts := []int{1, 2, 4, 8}
	if opt.Quick {
		apps = []string{"bfs", "pr"}
		counts = []int{1, 8}
	}
	base := map[string]float64{}
	for _, shards := range counts {
		part, err := graph.NewPartition(g, shards)
		if err != nil {
			return fmt.Errorf("figShard: partitioning %s into %d: %w", gname, shards, err)
		}
		e, err := shard.New(part, shard.ServingConfig(optaneMachine(opt.Scale), threads, core.BackendRaw))
		if err != nil {
			return fmt.Errorf("figShard: %d shards: %w", shards, err)
		}
		for _, app := range apps {
			res := frameworks.RunBSP(e, app, params)
			if shards == counts[0] {
				base[app] = res.Seconds
			}
			sp := stats.Speedup(base[app], res.Seconds)
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\t%.2f\t%s\n",
				gname, app, shards, res.Seconds, e.CommSeconds(),
				float64(e.BytesSent())/(1<<20), stats.Ratio(sp))
			opt.record(Record{
				Graph:           gname,
				App:             app,
				Algorithm:       res.Algorithm,
				Threads:         threads,
				Shards:          shards,
				SimSeconds:      res.Seconds,
				CommSeconds:     e.CommSeconds(),
				CrossBytes:      e.BytesSent(),
				Speedup:         sp,
				PerShardSeconds: e.PerShardSeconds(),
			})
		}
		e.Close()
	}
	fmt.Fprintln(w, "(each shard owns a contiguous range on its own machine; exchange via shared-memory interconnect)")
	return w.Flush()
}
