package bench

import (
	"fmt"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/memsim"
)

// algoStudy runs the Figure 7/8 algorithm comparison on the given machine:
// bfs {dense-wl, dir-opt, sparse-wl}, cc {dense-wl, labelprop-sc}, and
// sssp {dense-wl, delta-step} on rmat32, clueweb12 and wdc12. Every cell is
// a Galois plan naming its variant.
func algoStudy(opt Options, machine memsim.MachineConfig, threads int) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tApp\tAlgorithm\tTime (s)\tRounds")
	graphs := []string{"rmat32", "clueweb12", "wdc12"}
	if opt.Quick {
		graphs = []string{"rmat32", "clueweb12"}
	}
	cells := []struct{ app, variant string }{
		{"bfs", "dense-wl"}, {"bfs", "dir-opt"}, {"bfs", "sparse-wl"},
		{"cc", "dense-wl"}, {"cc", "labelprop-sc"},
		{"sssp", "dense-wl"}, {"sssp", "delta-step"},
	}
	for _, name := range graphs {
		g, _ := input(name, opt.Scale)
		params := frameworks.DefaultParams(g)
		for _, c := range cells {
			pl := frameworks.Galois.Plan(g, c.app, threads, params)
			pl.Variant = c.variant
			if c.variant == "dir-opt" {
				// It pulls over the transpose Galois bfs does not ask for.
				pl.Opts.BothDirections = true
			}
			res, _, err := pl.Run(memsim.NewMachine(machine))
			if err != nil {
				return fmt.Errorf("%s %s/%s: %w", name, c.app, c.variant, err)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%d\n", name, c.app, res.Algorithm, res.Seconds, res.Rounds)
			opt.record(Record{Graph: name, App: c.app, Algorithm: res.Algorithm, Threads: threads, SimSeconds: res.Seconds})
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
