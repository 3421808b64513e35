package bench

import (
	"fmt"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/memsim"
)

// Figure10 regenerates the strong-scaling study: every benchmark in Galois
// on kron30 and clueweb12, sweeping thread counts on both DDR4 DRAM and
// Optane PMM (memory mode).
func Figure10(opt Options) error {
	w := table(opt.Out)
	threadCounts := []int{6, 12, 24, 48, 96}
	apps := frameworks.Apps()
	if opt.Quick {
		threadCounts = []int{12, 48, 96}
		apps = []string{"bfs", "pr", "sssp"}
	}
	fmt.Fprintln(w, "Graph\tApp\tThreads\tOptane PMM (s)\tDDR4 DRAM (s)\tPMM/DRAM")
	for _, gname := range []string{"kron30", "clueweb12"} {
		g, _ := input(gname, opt.Scale)
		params := frameworks.DefaultParams(g)
		for _, app := range apps {
			for _, threads := range threadCounts {
				om := memsim.NewMachine(optaneMachine(opt.Scale))
				ores, _, err := frameworks.Galois.Plan(g, app, threads, params).Run(om)
				if err != nil {
					return fmt.Errorf("fig10 %s/%s optane: %w", gname, app, err)
				}
				dm := memsim.NewMachine(dramMachine(opt.Scale))
				dres, _, err := frameworks.Galois.Plan(g, app, threads, params).Run(dm)
				if err != nil {
					return fmt.Errorf("fig10 %s/%s dram: %w", gname, app, err)
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\t%.2fx\n",
					gname, app, threads, ores.Seconds, dres.Seconds, ores.Seconds/dres.Seconds)
				opt.record(Record{Graph: gname, App: app, Algorithm: "galois/optane", Threads: threads, SimSeconds: ores.Seconds})
				opt.record(Record{Graph: gname, App: app, Algorithm: "galois/dram", Threads: threads, SimSeconds: dres.Seconds})
			}
		}
	}
	fmt.Fprintln(w, "(paper: kron30 nearly identical on PMM and DRAM; clueweb12 averages +7.3% on PMM at 96 threads)")
	return w.Flush()
}
