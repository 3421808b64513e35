//go:build hostclock

// Host-clock assertions: each compares wall-clock times measured on the
// machine running the test, so its verdict depends on how busy that
// machine is, not only on the code. They stay out of the default
// `go test ./...` and run on their own with
//
//	go test -tags hostclock -count=1 -run 'TestFigServePriority|TestFigSealOverlay|TestParallelWallClock' ./internal/bench

package bench

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/server"
)

// TestFigServePriorityBoundsInteractiveTailLatency is the admission-control
// acceptance assertion: replaying the identical open-loop trace at the
// overloaded sweep point, per-class priority scheduling with interactive
// deadlines must keep the interactive p99 strictly below single-queue FIFO,
// and must not serve less within-SLO interactive goodput. The margin is
// structural, not a timing accident — under FIFO an interactive arrival
// waits behind the whole mixed backlog (including ~10x-heavier batch
// jobs), while priority drains interactive 4:1 and sheds doomed work at
// its deadline, bounding the tail near the SLO.
func TestFigServePriorityBoundsInteractiveTailLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("figServe paces wall-clock arrivals; the race detector's ~15x slowdown distorts the sweep")
	}
	if testing.Short() {
		t.Skip("serving replays are slow")
	}
	rows := runFigServe(t, "")

	// The overloaded sweep point is the highest offered rate.
	maxOffered := 0.0
	for _, r := range rows {
		if r.OfferedRPS > maxOffered {
			maxOffered = r.OfferedRPS
		}
	}
	byMode := map[string]Record{}
	for _, r := range rows {
		if r.OfferedRPS == maxOffered && r.Class == server.ClassInteractive {
			byMode[r.Mode] = r
		}
	}
	fifo, ok := byMode["fifo"]
	if !ok {
		t.Fatalf("no fifo interactive record at %.0f rps: %+v", maxOffered, rows)
	}
	prio, ok := byMode["priority"]
	if !ok {
		t.Fatalf("no priority interactive record at %.0f rps: %+v", maxOffered, rows)
	}
	if prio.P99Ms >= fifo.P99Ms {
		t.Errorf("at overload (%.0f rps) priority interactive p99 = %.1fms is not strictly below fifo %.1fms",
			maxOffered, prio.P99Ms, fifo.P99Ms)
	}
	if prio.GoodputRPS < fifo.GoodputRPS {
		t.Errorf("at overload (%.0f rps) priority interactive goodput = %.1f rps fell below fifo %.1f rps",
			maxOffered, prio.GoodputRPS, fifo.GoodputRPS)
	}
	// Every interactive arrival is accounted for in every row: completed,
	// rejected or shed.
	for mode, r := range byMode {
		if got := r.Completed + r.Rejected + r.Shed; got != uint64(r.Events) {
			t.Errorf("%s interactive outcomes %d != events %d", mode, got, r.Events)
		}
	}
}

// TestFigSealOverlayBeatsRebuild is the figSeal acceptance assertion
// (the delta overlay's perf criterion): for update batches no larger than
// |E|/100, sealing an epoch through the delta overlay must be at least
// 10x cheaper in wall-clock than the old full-CSR rebuild path.
func TestFigSealOverlayBeatsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	resetInputs()
	t.Cleanup(resetInputs)
	sink := &Sink{}
	var buf bytes.Buffer
	if err := Run("figSeal", Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	type key struct {
		graph, strategy string
		batch           int
	}
	times := map[key]float64{}
	for _, r := range sink.Records() {
		if r.Batch == 0 {
			continue // the experiment's wall-time record
		}
		times[key{r.Graph, r.Algorithm, r.Batch}] = r.WallSeconds
	}
	if len(times) == 0 {
		t.Fatalf("no figSeal records collected\n%s", buf.String())
	}
	g, _ := input("clueweb12", gen.ScaleSmall)
	smallEnough := g.NumEdges() / 100
	checked := 0
	for k, rebuild := range times {
		if k.strategy != "rebuild" || int64(k.batch) > smallEnough {
			continue
		}
		overlay := times[key{k.graph, "overlay", k.batch}]
		if overlay == 0 {
			t.Fatalf("missing overlay record for %s batch %d\n%s", k.graph, k.batch, buf.String())
		}
		checked++
		if overlay*10 > rebuild {
			t.Errorf("%s batch=%d: overlay apply (%.6fs) is not >=10x cheaper than rebuild (%.6fs)",
				k.graph, k.batch, overlay, rebuild)
		}
	}
	if checked == 0 {
		t.Fatalf("no batches <= |E|/100 = %d were swept\n%s", smallEnough, buf.String())
	}
}

// TestParallelWallClockSpeedup encodes the perf acceptance bar for the
// goroutine-backed simulator: with >= 4 cores, the fig7 harness must run at
// least 2x faster in wall-clock at GOMAXPROCS=NumCPU than at GOMAXPROCS=1
// (with byte-identical output, asserted by
// TestFigureHarnessDeterministicAcrossGOMAXPROCS). Skipped on smaller
// machines, where there is no parallel hardware to win on.
func TestParallelWallClockSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig7 harness three times")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to measure parallel speedup, have %d", runtime.NumCPU())
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	run := func() time.Duration {
		start := time.Now()
		if err := Run("fig7", Options{Scale: gen.ScaleSmall, Quick: true}); err != nil {
			t.Fatalf("fig7: %v", err)
		}
		return time.Since(start)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	run() // warm the input cache outside either measurement
	par := run()
	runtime.GOMAXPROCS(1)
	seq := run()

	if seq < 2*par {
		t.Errorf("fig7 wall-clock: sequential %v, parallel %v — want >= 2x speedup at %d CPUs",
			seq, par, runtime.NumCPU())
	}
}
