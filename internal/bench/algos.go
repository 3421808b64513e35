package bench

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// algoStudy runs the Figure 7/8 algorithm comparison on the given machine:
// bfs {dense-wl, dir-opt, sparse-wl}, cc {dense-wl, labelprop-sc}, and
// sssp {dense-wl, delta-step} on rmat32, clueweb12 and wdc12.
func algoStudy(opt Options, machine memsim.MachineConfig, threads int) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tApp\tAlgorithm\tTime (s)\tRounds")
	graphs := []string{"rmat32", "clueweb12", "wdc12"}
	if opt.Quick {
		graphs = []string{"rmat32", "clueweb12"}
	}
	newRT := func(g *graph.Graph, weighted, both bool) *core.Runtime {
		m := memsim.NewMachine(machine)
		o := core.GaloisDefaults(threads)
		o.Weighted = weighted
		o.BothDirections = both
		return core.MustNew(m, g, o)
	}
	for _, name := range graphs {
		g, _ := input(name, opt.Scale)
		src, _ := g.MaxOutDegreeNode()

		runs := []struct {
			app string
			fn  func() *analytics.Result
		}{
			{"bfs", func() *analytics.Result {
				r := newRT(g, false, false)
				defer r.Close()
				return analytics.BFSDense(r, src)
			}},
			{"bfs", func() *analytics.Result {
				r := newRT(g, false, true)
				defer r.Close()
				return analytics.BFSDirOpt(r, src)
			}},
			{"bfs", func() *analytics.Result {
				r := newRT(g, false, false)
				defer r.Close()
				return analytics.BFSSparse(r, src)
			}},
			{"cc", func() *analytics.Result {
				r := newRT(g, false, true)
				defer r.Close()
				return analytics.CCLabelPropDense(r)
			}},
			{"cc", func() *analytics.Result {
				r := newRT(g, false, true)
				defer r.Close()
				return analytics.CCLabelPropSC(r)
			}},
			{"sssp", func() *analytics.Result {
				r := newRT(g, true, false)
				defer r.Close()
				return analytics.SSSPBellmanFordDense(r, src)
			}},
			{"sssp", func() *analytics.Result {
				r := newRT(g, true, false)
				defer r.Close()
				return analytics.SSSPDeltaStep(r, src, 64)
			}},
		}
		for _, run := range runs {
			res := run.fn()
			fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%d\n", name, run.app, res.Algorithm, res.Seconds, res.Rounds)
			opt.record(Record{Graph: name, App: run.app, Algorithm: res.Algorithm, Threads: threads, SimSeconds: res.Seconds})
		}
	}
	fmt.Fprintln(w, "(paper: dense/dir-opt wins on rmat32; sparse-wl, labelprop-sc, delta-step win on web crawls)")
	return w.Flush()
}

// Figure7 runs the algorithm study on the Optane PMM machine (96 threads).
func Figure7(opt Options) error {
	return algoStudy(opt, optaneMachine(opt.Scale), 96)
}

// Figure8 runs the same study on Entropy, the paper's 4-socket DRAM
// control machine restricted to 56 threads, showing the findings are not
// Optane-specific.
func Figure8(opt Options) error {
	return algoStudy(opt, entropyMachine(opt.Scale), 56)
}
