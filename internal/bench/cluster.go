package bench

import (
	"fmt"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
	"pmemgraph/internal/stats"
)

// clusterApps are the Table 4 / Figure 11 benchmarks (no tc: D-Galois'
// distributed triangle counting is a separate system, DistTC).
var clusterApps = []string{"bc", "bfs", "cc", "kcore", "pr", "sssp"}

// clusterEngine partitions g into `hosts` ranges and builds the Stampede2
// cluster emulation over them (shard.ClusterConfig: 48 threads per host,
// Omni-Path interconnect, OEC below 128 hosts / CVC at or above). g is a
// sealed input: partitions alias its weights and transpose.
func clusterEngine(g *graph.Graph, hosts int, scale gen.Scale) (*shard.Engine, error) {
	part, err := graph.NewPartition(g, hosts)
	if err != nil {
		return nil, err
	}
	return shard.New(part, shard.ClusterConfig(hosts, scale.Div()))
}

// vertexPlan is the best *vertex-program* variant on a single machine
// (the paper's OA/OS configurations: same algorithms as D-Galois, run on
// the Optane box): dense worklists, pr's own topology-driven pull, and
// interleaved placement for every app.
func vertexPlan(g *graph.Graph, app string, threads int, params frameworks.Params) frameworks.Plan {
	pl := frameworks.Galois.Plan(g, app, threads, params)
	if app != "pr" {
		pl.Variant = "dense-wl"
	}
	pl.Opts.GraphPolicy, pl.Opts.NodePolicy = memsim.Interleaved, memsim.Interleaved
	return pl
}

// minHostsFor estimates the paper's DM host count for a graph: the
// replicated footprint (CSR plus mirrors, ~2.5x) over per-host usable
// memory. The CSR is the out-direction only, the footprint the paper sizes
// hosts by, not the weights and transpose every input is sealed with.
func minHostsFor(g *graph.Graph, scale gen.Scale) int {
	host := memsim.Scaled(memsim.StampedeHost(), scale.Div())
	csr := int64(g.NumNodes()+1)*8 + g.NumEdges()*4
	return shard.MinHosts(csr*5/2, host)
}

// table4Graphs lists the Table 4 inputs.
var table4Graphs = []string{"clueweb12", "uk14", "iso_m100", "wdc12"}

// Table4 regenerates the Optane-vs-cluster comparison: Galois with the
// best (non-vertex, asynchronous) algorithms on the Optane machine (OB)
// against D-Galois vertex programs on the minimum host count (DM).
func Table4(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tApp\tStampede DM (s)\tOptane OB (s)\tSpeedup DM/OB")
	graphs := table4Graphs
	apps := clusterApps
	if opt.Quick {
		graphs = []string{"clueweb12"}
		apps = []string{"bfs", "cc", "sssp"}
	}
	var speedups []float64
	for _, gname := range graphs {
		g, _ := input(gname, opt.Scale)
		params := frameworks.DefaultParams(g)
		hosts := minHostsFor(g, opt.Scale)
		e, err := clusterEngine(g, hosts, opt.Scale)
		if err != nil {
			return fmt.Errorf("table4 %s: %w", gname, err)
		}
		for _, app := range apps {
			dres := frameworks.RunBSP(e, app, params)
			m := memsim.NewMachine(optaneMachine(opt.Scale))
			ores, _, err := frameworks.Galois.Plan(g, app, 96, params).Run(m)
			if err != nil {
				return fmt.Errorf("table4 %s/%s optane: %w", gname, app, err)
			}
			sp := stats.Speedup(dres.Seconds, ores.Seconds)
			speedups = append(speedups, sp)
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%s\n", gname, app, dres.Seconds, ores.Seconds, stats.Ratio(sp))
		}
		e.Close()
		fmt.Fprintf(w, "(%s: DM uses %d hosts)\n", gname, hosts)
	}
	fmt.Fprintf(w, "Geomean speedup of Optane PMM over Stampede DM: %s (paper: 1.7x)\n",
		stats.Ratio(stats.Geomean(speedups)))
	return w.Flush()
}

// Figure11 regenerates the six-configuration comparison: DB (256 hosts,
// CVC), DM (min hosts), DS (min hosts, 80 threads total), OS (vertex
// programs on Optane, 80 threads), OA (vertex programs, 96 threads), OB
// (best algorithms, 96 threads).
func Figure11(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tApp\tDB\tDM\tDS\tOS\tOA\tOB\t(seconds)")
	graphs := table4Graphs[:2]
	apps := clusterApps
	if opt.Quick {
		graphs = []string{"clueweb12"}
		apps = []string{"bfs", "sssp"}
	} else if opt.Scale == gen.ScaleFull {
		graphs = table4Graphs
	}
	for _, gname := range graphs {
		g, _ := input(gname, opt.Scale)
		params := frameworks.DefaultParams(g)
		minHosts := minHostsFor(g, opt.Scale)

		db, err := clusterEngine(g, 256, opt.Scale)
		if err != nil {
			return err
		}
		dm, err := clusterEngine(g, minHosts, opt.Scale)
		if err != nil {
			return err
		}
		dsPart, err := graph.NewPartition(g, minHosts)
		if err != nil {
			return err
		}
		dsCfg := shard.ClusterConfig(minHosts, opt.Scale.Div())
		dsCfg.Threads = max(1, 80/minHosts)
		ds, err := shard.New(dsPart, dsCfg)
		if err != nil {
			return err
		}

		for _, app := range apps {
			row := fmt.Sprintf("%s\t%s", gname, app)
			for _, e := range []*shard.Engine{db, dm, ds} {
				row += fmt.Sprintf("\t%.4f", frameworks.RunBSP(e, app, params).Seconds)
			}
			for _, pl := range []frameworks.Plan{
				vertexPlan(g, app, 80, params),             // OS
				vertexPlan(g, app, 96, params),             // OA
				frameworks.Galois.Plan(g, app, 96, params), // OB
			} {
				res, _, err := pl.Run(memsim.NewMachine(optaneMachine(opt.Scale)))
				if err != nil {
					return err
				}
				row += fmt.Sprintf("\t%.4f", res.Seconds)
			}
			fmt.Fprintln(w, row)
		}
		db.Close()
		dm.Close()
		ds.Close()
	}
	fmt.Fprintln(w, "(paper: OS similar or better than DS except pr; OB matches DB for bc/bfs/kcore/sssp)")
	return w.Flush()
}
