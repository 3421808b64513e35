package bench

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// figStream pagerank parameters: the conformance tolerance with the same
// round cap figCompress uses, so the full-recompute baseline is a bounded,
// comparable run.
const (
	figStreamPRTol    = 1e-9
	figStreamPRRounds = 20
)

// FigStream measures the streaming-update path: after a batched edge
// update, how much cheaper is incremental recomputation seeded from the
// prior epoch than recomputing from scratch? For each update-batch size x
// kernel x machine it applies one insert-only batch (insert-only keeps cc
// on its union-find fast path; deletions force its documented fallback) to
// a Table 3 generator, runs the full kernel and the incremental kernel on
// the post-update graph on fresh machines, and reports both simulated
// times and their ratio. Outputs are bitwise identical between the two
// variants (locked by the analytics conformance suite); only the charging
// differs. The incremental win shrinks as batches grow — the structurally
// tainted region approaches the whole graph — which is exactly the
// GraphBolt-style trade the experiment exists to show.
func FigStream(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Machine\tGraph\tApp\tBatch\tVariant\tAlgorithm\tTime (s)\tvs full\tRounds")
	graphs := []string{"clueweb12", "rmat32"}
	batches := []int{16, 256, 4096}
	if opt.Quick {
		graphs = graphs[:1]
		batches = []int{16, 1024}
	}
	machines := []struct {
		name string
		cfg  memsim.MachineConfig
	}{
		{"DRAM", dramMachine(opt.Scale)},
		{"MemoryMode", optaneMachine(opt.Scale)},
	}
	const threads = 96
	// plan is the full Galois run: labelprop-sc cc, the bounded pr, and
	// interleaved placement for both (Galois would block pr's arrays).
	plan := func(g *graph.Graph, app string) frameworks.Plan {
		params := frameworks.DefaultParams(g)
		params.Tol, params.Rounds = figStreamPRTol, figStreamPRRounds
		pl := frameworks.Galois.Plan(g, app, threads, params)
		pl.Opts.GraphPolicy, pl.Opts.NodePolicy = memsim.Interleaved, memsim.Interleaved
		if app == "cc" {
			pl.Variant = "labelprop-sc"
		}
		return pl
	}
	for _, mc := range machines {
		for _, gname := range graphs {
			g0, _ := input(gname, opt.Scale)
			// Prior-epoch artifacts, recorded once per (machine, graph) by
			// full runs on the pre-update graph (the serving layer's
			// steady state: some earlier job produced them). An
			// incremental pr plan without a seed records one.
			prior, _, err := plan(g0, "cc").Run(memsim.NewMachine(mc.cfg))
			if err != nil {
				return err
			}
			seeds := map[string]*frameworks.Seed{"cc": {CCLabels: prior.Labels}}
			record := plan(g0, "pr")
			record.Incremental = true
			if _, seeds["pr"], err = record.Run(memsim.NewMachine(mc.cfg)); err != nil {
				return err
			}
			for _, batch := range batches {
				stream, err := gen.UpdateStream(g0, 1, batch, uint64(0x57AB<<8)+uint64(batch), false)
				if err != nil {
					return fmt.Errorf("bench: generating %s batch of %d: %w", gname, batch, err)
				}
				g1, delta, err := graph.ApplyUpdates(g0, stream[0])
				if err != nil {
					return fmt.Errorf("bench: applying %s batch of %d: %w", gname, batch, err)
				}
				frameworks.Seal(g1)
				for _, app := range []string{"cc", "pr"} {
					pl := plan(g1, app)
					full, _, err := pl.Run(memsim.NewMachine(mc.cfg))
					if err != nil {
						return err
					}
					// The incremental kernels take no variant.
					pl.Variant, pl.Incremental, pl.Seed, pl.Delta = "", true, seeds[app], &delta
					inc, _, err := pl.Run(memsim.NewMachine(mc.cfg))
					if err != nil {
						return err
					}
					ratio := inc.Seconds / full.Seconds
					for _, row := range []struct {
						variant string
						res     *analytics.Result
						vsFull  string
					}{
						{"full", full, "-"},
						{"incremental", inc, fmt.Sprintf("%.2fx", ratio)},
					} {
						fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%s\t%.4f\t%s\t%d\n",
							mc.name, gname, app, batch, row.variant, row.res.Algorithm,
							row.res.Seconds, row.vsFull, row.res.Rounds)
						opt.record(Record{
							Graph: gname, App: app, Algorithm: row.res.Algorithm,
							Machine: mc.name, Batch: batch, Threads: threads,
							SimSeconds: row.res.Seconds,
						})
					}
				}
			}
		}
	}
	fmt.Fprintln(w, "(both variants compute bitwise-identical outputs on the post-update graph; incremental is seeded from the pre-update epoch's result and wins on small batches)")
	return w.Flush()
}
