package bench

import (
	"fmt"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/stats"
)

// FigCompress compares the raw and byte-compressed CSR storage backends
// across the three memory tiers (DRAM main memory, Optane memory mode,
// uncached app-direct) on the Table 3 generators. The paper's kernels are
// bandwidth bound on the slow tier, so shrinking the adjacency stream
// trades cheap decode compute for scarce bytes: the table reports each
// run's simulated time, the bytes read from the graph's adjacency arrays
// (the slow-tier CSR stream compression targets; per-vertex label gathers
// are backend-independent and reported in the total), the compressed
// run's adjacency-read reduction against its raw twin, and the resident
// CSR footprint of both forms. Kernel results are byte-identical between
// the backends (asserted by the analytics conformance suite); only
// traffic and time move.
func FigCompress(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Machine\tGraph\tApp\tAlgorithm\tBackend\tTime (s)\tAdj read\tvs raw\tTotal read\tCSR size")
	graphs := []string{"rmat32", "clueweb12", "uk14"}
	apps := []string{"bfs", "pr", "sssp"}
	if opt.Quick {
		graphs = graphs[:2]
		apps = apps[:2]
	}
	machines := []struct {
		name      string
		cfg       memsim.MachineConfig
		appDirect bool
	}{
		{"DRAM", dramMachine(opt.Scale), false},
		{"MemoryMode", optaneMachine(opt.Scale), false},
		{"AppDirect", memsim.Scaled(memsim.AppDirectMachine(), opt.Scale.Div()), true},
	}
	const threads = 96
	for _, mc := range machines {
		for _, gname := range graphs {
			g, _ := input(gname, opt.Scale)
			src, _ := g.MaxOutDegreeNode()
			for _, app := range apps {
				weighted := app == "sssp"
				var rawRead uint64
				for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
					m := memsim.NewMachine(mc.cfg)
					o := core.GaloisDefaults(threads)
					o.Weighted = weighted
					o.BothDirections = app != "sssp"
					o.AppDirect = mc.appDirect
					o.Backend = backend
					r := core.MustNew(m, g, o)
					var res *analytics.Result
					switch app {
					case "bfs":
						res = analytics.BFS(r, engine.Config{Rep: engine.RepDense, Dir: engine.DirAuto}, src)
					case "pr":
						res = analytics.PageRank(r, analytics.PRDefaultTolerance, 20)
					case "sssp":
						res = analytics.SSSPDeltaStep(r, src, 64)
					}
					footprint := r.FootprintBytes()
					adjRead := r.TopologyReadBytes()
					r.Close()
					delta := "-"
					if backend == core.BackendRaw {
						rawRead = adjRead
					} else if rawRead > 0 {
						delta = fmt.Sprintf("%+.1f%%", 100*(float64(adjRead)/float64(rawRead)-1))
					}
					fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%.4f\t%s\t%s\t%s\t%s\n",
						mc.name, gname, app, res.Algorithm, backend,
						res.Seconds, stats.HumanBytes(int64(adjRead)), delta,
						stats.HumanBytes(int64(res.Counters.BytesRead)),
						stats.HumanBytes(footprint))
					opt.record(Record{
						Graph: gname, App: app, Algorithm: res.Algorithm,
						Machine: mc.name, Backend: backend.String(),
						BytesRead: adjRead, Threads: threads, SimSeconds: res.Seconds,
					})
				}
			}
		}
	}
	fmt.Fprintln(w, "(adjacency reads are the slow-tier CSR stream; compression trades per-edge decode compute for that bandwidth, and results are byte-identical across backends)")
	return w.Flush()
}
