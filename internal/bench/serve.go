package bench

import (
	"fmt"
	"os"
	"sync"
	"time"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/loadgen"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
	"pmemgraph/internal/stats"
)

// figServe per-class SLOs (wall milliseconds from intended arrival to
// completion). The interactive SLO doubles as the request deadline in
// priority mode, so the scheduler sheds interactive work the moment it is
// doomed instead of queueing it to a useless completion.
const (
	figServeInteractiveSLOMS = 200
	figServeBatchSLOMS       = 1500
)

// figServeSpec is the open-loop workload figServe replays: a Zipf-skewed
// interactive cohort of cheap per-user bfs queries over the small web graph
// (each user probes their own source vertex) and a batch cohort of heavy
// whole-graph pr/cc jobs, 3:1 by weight. The trace is generated once per
// run and re-paced for each offered rate, so every sweep point replays the
// identical arrival sequence.
func figServeSpec(quick bool) loadgen.Spec {
	rate, duration := 150.0, 1.5
	if quick {
		rate, duration = 100.0, 0.8
	}
	return loadgen.Spec{
		Seed:     0x5E12F00D,
		Arrival:  loadgen.ArrivalSteady,
		Rate:     rate,
		Duration: duration,
		Cohorts: []loadgen.Cohort{
			{
				Name: "browsers", Class: server.ClassInteractive, Weight: 3,
				Users: 64, Graphs: []string{"web"}, Apps: []string{"bfs"},
				Threads: 8, DeadlineMS: figServeInteractiveSLOMS,
			},
			{
				Name: "analysts", Class: server.ClassBatch, Weight: 1,
				Users: 8, Graphs: []string{"kron"}, Apps: []string{"pr", "cc"},
				Threads: 16,
			},
		},
	}
}

// figServeClassMetrics aggregates one class's outcomes over one replay.
type figServeClassMetrics struct {
	events    int
	completed uint64
	rejected  uint64
	shed      uint64
	failed    uint64
	missed    uint64 // completed late, shed, or rejected
	good      uint64 // completed within the class SLO
	latencies []float64
}

func figServeSLO(class string) float64 {
	if class == server.ClassBatch {
		return figServeBatchSLOMS / 1e3
	}
	return figServeInteractiveSLOMS / 1e3
}

// figServeReplay paces the trace's virtual arrivals into one in-process
// serving instance at the offered rate (virtual time compressed or
// stretched by offered/trace-rate) and waits every admitted job to a
// terminal state. mode selects the scheduler shape: "fifo" is one shared
// queue with no deadlines — the pre-admission-control server — and
// "priority" is the weighted interactive/batch configuration with the
// interactive deadline attached to every interactive request. Latencies
// are measured open-loop, from each event's intended arrival instant, so
// a backlogged server keeps being charged for the queueing it causes.
func figServeReplay(machine memsim.MachineConfig, graphs map[string]*graph.Graph, trace *loadgen.Trace, mode string, offered float64) (map[string]*figServeClassMetrics, float64, error) {
	cfg := server.Config{Machine: machine, Workers: 1}
	switch mode {
	case "fifo":
		cfg.Classes = []server.ClassConfig{{Name: "fifo", Weight: 1, QueueCap: 512}}
	case "priority":
		cfg.Classes = []server.ClassConfig{
			{Name: server.ClassInteractive, Weight: 4, QueueCap: 256},
			{Name: server.ClassBatch, Weight: 1, QueueCap: 256},
		}
	default:
		return nil, 0, fmt.Errorf("bench: unknown figServe mode %q", mode)
	}
	srv := server.New(cfg)
	defer srv.Close()
	for name, g := range graphs {
		if _, err := srv.Registry().Add(name, "direct", g); err != nil {
			return nil, 0, fmt.Errorf("bench: registering %s: %w", name, err)
		}
	}

	metrics := map[string]*figServeClassMetrics{
		server.ClassInteractive: {},
		server.ClassBatch:       {},
	}
	speed := offered / trace.Spec.Rate
	webNodes := int(graphs["web"].NumNodes())
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for _, ev := range trace.Events {
		arrival := start.Add(time.Duration(float64(ev.ArrivalUS) * 1e3 / speed))
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		m := metrics[ev.Class]
		m.events++
		req := server.JobRequest{
			Graph:   ev.Graph,
			App:     ev.App,
			Threads: ev.Threads,
			NoCache: true, // measure executions, not cache hits
		}
		if ev.App == "bfs" {
			// Per-user query: each user probes their own source vertex.
			src := graph.Node(ev.User % webNodes)
			req.Params = &server.ParamOverrides{Source: &src}
		}
		if mode == "priority" {
			req.Class = ev.Class
			req.DeadlineMS = ev.DeadlineMS
		}
		job, err := srv.Submit(req)
		if err != nil {
			// Queue full (or closed): the request was turned away at the
			// door. No latency sample — the client learned instantly.
			m.rejected++
			m.missed++
			continue
		}
		wg.Add(1)
		go func(m *figServeClassMetrics, arrival time.Time, slo float64) {
			defer wg.Done()
			<-job.Done()
			lat := time.Since(arrival).Seconds()
			st := job.Status()
			mu.Lock()
			defer mu.Unlock()
			m.latencies = append(m.latencies, lat)
			switch st.State {
			case server.JobShed:
				m.shed++
				m.missed++
			case server.JobFailed:
				m.failed++
				m.missed++
			default:
				m.completed++
				if lat <= slo {
					m.good++
				} else {
					m.missed++
				}
			}
		}(m, arrival, figServeSLO(ev.Class))
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for class, m := range metrics {
		if m.failed > 0 {
			return nil, 0, fmt.Errorf("bench: %d %s jobs failed during replay", m.failed, class)
		}
	}
	return metrics, wall, nil
}

// FigServe measures the serving layer under open-loop temporal load: the
// same deterministic trace (Zipf-skewed interactive point queries plus
// heavy whole-graph batch jobs) is replayed against one in-process
// pmemserved instance at increasing offered rates, once with a single
// shared FIFO queue and once with per-class weighted priority queues and
// interactive deadlines. Offered rates are set relative to the measured
// single-worker service capacity, so "overload" means the same thing on
// every host. The experiment reports per-class p50/p99/p999 latency from
// intended arrival and within-SLO goodput — the admission-control claim is
// that at overload, priority scheduling keeps the interactive tail bounded
// (near its deadline) while FIFO lets batch occupancy push it toward the
// full drain time.
func FigServe(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Mode\tOffered\tClass\tEvents\tDone\tRej\tShed\tp50 (ms)\tp99 (ms)\tp999 (ms)\tGoodput (rps)")

	machine := optaneMachine(opt.Scale)
	// The interactive graph is small (point queries stay cheap); the batch
	// graph is deliberately ~10x heavier so a batch job occupying the
	// worker visibly delays FIFO interactive arrivals — the contrast the
	// experiment exists to measure.
	graphs := map[string]*graph.Graph{
		"web":  gen.WebCrawl(1500, 5, 60, 17),
		"kron": gen.Kron(13, 16, 5),
	}
	for _, g := range graphs {
		frameworks.Seal(g)
	}
	spec := figServeSpec(opt.Quick)
	trace, err := spec.Generate()
	if err != nil {
		return fmt.Errorf("bench: generating figServe trace: %w", err)
	}
	if opt.TraceOut != "" {
		data, err := trace.Marshal()
		if err != nil {
			return fmt.Errorf("bench: marshaling figServe trace: %w", err)
		}
		if err := os.WriteFile(opt.TraceOut, data, 0o644); err != nil {
			return fmt.Errorf("bench: writing figServe trace: %w", err)
		}
	}

	// Calibrate the offered-load axis: measure each job shape once and
	// take the trace-weighted mean service time as the single-worker
	// capacity. Multipliers below/above 1 are then genuine under/overload
	// regardless of host speed.
	classEvents := map[string]int{}
	for _, ev := range trace.Events {
		classEvents[ev.Class]++
	}
	costs := map[string]float64{}
	for gname, apps := range map[string][]string{"web": {"bfs"}, "kron": {"pr", "cc"}} {
		g := graphs[gname]
		params := frameworks.DefaultParams(g)
		for _, app := range apps {
			t0 := time.Now()
			if _, _, err := frameworks.Galois.Plan(g, app, 8, params).Run(memsim.NewMachine(machine)); err != nil {
				return fmt.Errorf("bench: calibrating %s/%s: %w", gname, app, err)
			}
			costs[app] = time.Since(t0).Seconds()
		}
	}
	n := float64(len(trace.Events))
	meanCost := float64(classEvents[server.ClassInteractive])/n*costs["bfs"] +
		float64(classEvents[server.ClassBatch])/n*(costs["pr"]+costs["cc"])/2
	capacity := 1 / meanCost

	multipliers := []float64{0.5, 1.2, 2.5}
	if opt.Quick {
		multipliers = []float64{0.7, 2.5}
	}
	for _, mult := range multipliers {
		offered := mult * capacity
		for _, mode := range []string{"fifo", "priority"} {
			metrics, wall, err := figServeReplay(machine, graphs, trace, mode, offered)
			if err != nil {
				return err
			}
			for _, class := range []string{server.ClassInteractive, server.ClassBatch} {
				m := metrics[class]
				p50 := stats.Quantile(m.latencies, 0.50) * 1e3
				p99 := stats.Quantile(m.latencies, 0.99) * 1e3
				p999 := stats.Quantile(m.latencies, 0.999) * 1e3
				goodput := float64(m.good) / wall
				fmt.Fprintf(w, "%s\t%.0f/s\t%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
					mode, offered, class, m.events, m.completed, m.rejected, m.shed,
					p50, p99, p999, goodput)
				opt.record(Record{
					Mode: mode, Class: class,
					OfferedRPS: offered, Events: m.events,
					Completed: m.completed, Rejected: m.rejected, Shed: m.shed,
					DeadlineMissed: m.missed,
					P50Ms:          p50, P99Ms: p99, P999Ms: p999,
					GoodputRPS: goodput,
				})
			}
		}
	}
	fmt.Fprintln(w, "(latencies are wall milliseconds from intended open-loop arrival; offered rates are multiples of the calibrated single-worker capacity; goodput counts within-SLO completions)")
	return w.Flush()
}
