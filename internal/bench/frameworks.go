package bench

import (
	"fmt"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/stats"
)

// Figure9 regenerates the framework comparison on Optane PMM: GraphIt,
// GAP, GBBS and Galois across the benchmarks and the four large inputs.
// Omissions mirror the paper: GAP and GraphIt skip wdc12 (the real graph
// exceeds their signed 32-bit node IDs), GraphIt has no bc, GAP and
// GraphIt have no kcore.
func Figure9(opt Options) error {
	w := table(opt.Out)
	graphs := []string{"clueweb12", "uk14", "iso_m100", "wdc12"}
	apps := []string{"bc", "bfs", "cc", "pr", "sssp", "tc"}
	if opt.Quick {
		graphs = []string{"clueweb12"}
		apps = []string{"bfs", "cc", "sssp"}
	}
	fmt.Fprintln(w, "Graph\tApp\tGraphIt\tGAP\tGBBS\tGalois\t(seconds; - = not supported)")
	galoisWins := 0
	cells := 0
	var speedups []float64
	for _, gname := range graphs {
		g, row := input(gname, opt.Scale)
		params := frameworks.DefaultParams(g)
		for _, app := range apps {
			times := make(map[string]float64)
			line := fmt.Sprintf("%s\t%s", gname, app)
			for _, p := range frameworks.All() {
				cell := "-"
				// The paper-scale graph gates 32-bit frameworks,
				// not our scaled stand-in.
				tooBig := p.Signed32NodeIDs && row.Nodes > (1<<31)-1
				plan := p.Plan(g, app, 96, params)
				if plan.Validate() == nil && !tooBig {
					res, _, err := plan.Run(memsim.NewMachine(optaneMachine(opt.Scale)))
					if err == nil {
						times[p.Name] = res.Seconds
						cell = fmt.Sprintf("%.4f", res.Seconds)
						opt.record(Record{Graph: gname, App: app, Algorithm: res.Algorithm, Framework: p.Name, Threads: 96, SimSeconds: res.Seconds})
					} else {
						cell = "err"
					}
				}
				line += "\t" + cell
			}
			fmt.Fprintln(w, line)
			if gt, ok := times["Galois"]; ok {
				best := true
				for name, t := range times {
					if name != "Galois" && t < gt {
						best = false
					}
					if name != "Galois" && t > 0 {
						speedups = append(speedups, t/gt)
					}
				}
				cells++
				if best {
					galoisWins++
				}
			}
		}
	}
	fmt.Fprintf(w, "Galois fastest in %d/%d cells; geomean speedup of Galois over others: %s\n",
		galoisWins, cells, stats.Ratio(stats.Geomean(speedups)))
	fmt.Fprintln(w, "(paper: Galois on average 3.8x vs GraphIt, 1.9x vs GAP, 1.6x vs GBBS)")
	return w.Flush()
}
