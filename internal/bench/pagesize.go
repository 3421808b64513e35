package bench

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/stats"
)

// fig5Run executes Galois sparse-worklist bfs once under the given
// machine/page/migration configuration and returns the result. The runtime
// backs every allocation with pageSize pages and no THP. §3 presents the
// mean of 3 runs; the simulation is deterministic, so one run is that mean.
func fig5Run(g *graph.Graph, base memsim.MachineConfig, pageSize int64, migration bool) (*analytics.Result, error) {
	cfg := base
	cfg.PageSize = pageSize
	cfg.NUMAMigration = migration
	pl := frameworks.Galois.Plan(g, "bfs", 96, frameworks.DefaultParams(g))
	pl.Variant = "sparse-wl"
	pl.Opts.PageSize = pageSize
	res, _, err := pl.Run(memsim.NewMachine(cfg))
	return res, err
}

// Figure5 regenerates the page-size x migration study: bfs in Galois with
// 4 KB and 2 MB pages, NUMA migration on and off, on Optane PMM for all
// four graphs and on DRAM for the two DRAM-fitting graphs.
func Figure5(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Machine\tGraph\tPages\tMigr ON (s)\tMigr OFF (s)\tOFF gain")
	graphs := []string{"kron30", "clueweb12", "uk14", "wdc12"}
	if opt.Quick {
		graphs = []string{"kron30", "clueweb12"}
	}
	run := func(machine memsim.MachineConfig, names []string) error {
		for _, name := range names {
			g, _ := input(name, opt.Scale)
			for _, ps := range []int64{memsim.PageSmall, memsim.PageHuge} {
				on, err := fig5Run(g, machine, ps, true)
				if err != nil {
					return err
				}
				off, err := fig5Run(g, machine, ps, false)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%.4f\t%.4f\t%s\n",
					machine.Name, name, pageName(ps), on.Seconds, off.Seconds,
					stats.Pct(on.Seconds, off.Seconds))
			}
		}
		return nil
	}
	if err := run(optaneMachine(opt.Scale), graphs); err != nil {
		return err
	}
	dramGraphs := []string{"kron30", "clueweb12"}
	if opt.Quick {
		dramGraphs = dramGraphs[:1]
	}
	if err := run(dramMachine(opt.Scale), dramGraphs); err != nil {
		return err
	}
	fmt.Fprintln(w, "(paper: turning migration off gains up to 53% on 4KB pages; 2MB pages gain less)")
	return w.Flush()
}

// Figure6 regenerates the kernel/user time breakdown for the Figure 5
// kron30 and clueweb12 runs.
func Figure6(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Machine\tGraph\tPages\tMigration\tKernel (s)\tUser (s)\tTLB miss rate")
	for _, machine := range []memsim.MachineConfig{optaneMachine(opt.Scale), dramMachine(opt.Scale)} {
		for _, name := range []string{"kron30", "clueweb12"} {
			g, _ := input(name, opt.Scale)
			for _, ps := range []int64{memsim.PageSmall, memsim.PageHuge} {
				for _, mig := range []bool{true, false} {
					res, err := fig5Run(g, machine, ps, mig)
					if err != nil {
						return err
					}
					c := res.Counters
					total := c.UserNs + c.KernelNs
					wall := res.Seconds
					var kernel, user float64
					if total > 0 {
						kernel = wall * c.KernelNs / total
						user = wall * c.UserNs / total
					}
					fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%.4f\t%.4f\t%.1f%%\n",
						machine.Name, name, pageName(ps), onOff(mig), kernel, user, 100*c.TLBMissRate())
				}
			}
		}
	}
	fmt.Fprintln(w, "(paper: migrations add kernel time, more on Optane than DRAM; user time unchanged)")
	return w.Flush()
}

func pageName(ps int64) string {
	if ps == memsim.PageHuge {
		return "2MB"
	}
	return "4KB"
}

func onOff(b bool) string {
	if b {
		return "ON"
	}
	return "OFF"
}
