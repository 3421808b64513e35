package bench

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
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
	newRT := func(cfg memsim.MachineConfig, g *graph.Graph) *core.Runtime {
		o := core.GaloisDefaults(threads)
		o.BothDirections = true // cc propagates symmetrically, pr pulls
		return core.MustNew(memsim.NewMachine(cfg), g, o)
	}
	for _, mc := range machines {
		for _, gname := range graphs {
			g0, _ := input(gname, opt.Scale)
			// Prior-epoch artifacts, recorded once per (machine, graph) by
			// full runs on the pre-update graph (the serving layer's
			// steady state: some earlier job produced them).
			rt := newRT(mc.cfg, g0)
			priorCC := analytics.CCLabelPropSC(rt).Labels
			rt.Close()
			rt = newRT(mc.cfg, g0)
			_, prSeed := analytics.PageRankRecord(rt, figStreamPRTol, figStreamPRRounds)
			rt.Close()
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
					var full, inc *analytics.Result
					switch app {
					case "cc":
						rt := newRT(mc.cfg, g1)
						full = analytics.CCLabelPropSC(rt)
						rt.Close()
						rt = newRT(mc.cfg, g1)
						inc = analytics.CCIncremental(rt, priorCC, &delta)
						rt.Close()
					case "pr":
						rt := newRT(mc.cfg, g1)
						full = analytics.PageRank(rt, figStreamPRTol, figStreamPRRounds)
						rt.Close()
						rt = newRT(mc.cfg, g1)
						inc, _ = analytics.PageRankIncremental(rt, prSeed, &delta, figStreamPRTol, figStreamPRRounds)
						rt.Close()
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
