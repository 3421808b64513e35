package bench

import (
	"bytes"
	"testing"

	"pmemgraph/internal/gen"
)

// TestFigStreamIncrementalBeatsFullOnSmallBatches is the figStream
// acceptance assertion: for the smallest update batch, the incremental
// variant's simulated time must beat the full recompute for both kernels
// on every machine the experiment sweeps, and incremental cc (union-find
// over the prior labels, no traversal) must win by a wide margin.
func TestFigStreamIncrementalBeatsFullOnSmallBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	sink := &Sink{}
	var buf bytes.Buffer
	if err := Run("figStream", Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	// Index sim seconds by (machine, app, batch, algorithm-class).
	type key struct {
		machine, app string
		batch        int
		incremental  bool
	}
	times := map[key]float64{}
	minBatch := 0
	for _, r := range sink.Records() {
		if r.Batch == 0 {
			continue // the experiment's wall-time record
		}
		inc := r.Algorithm == "inc-unionfind" || r.Algorithm == "topo-pull-inc"
		times[key{r.Machine, r.App, r.Batch, inc}] = r.SimSeconds
		if minBatch == 0 || r.Batch < minBatch {
			minBatch = r.Batch
		}
	}
	if minBatch == 0 {
		t.Fatalf("no figStream records collected\n%s", buf.String())
	}
	for _, machine := range []string{"DRAM", "MemoryMode"} {
		for _, app := range []string{"cc", "pr"} {
			full := times[key{machine, app, minBatch, false}]
			inc := times[key{machine, app, minBatch, true}]
			if full == 0 || inc == 0 {
				t.Fatalf("missing %s/%s records at batch %d\n%s", machine, app, minBatch, buf.String())
			}
			if inc >= full {
				t.Errorf("%s %s batch=%d: incremental (%.4fs) did not beat full recompute (%.4fs)",
					machine, app, minBatch, inc, full)
			}
			if app == "cc" && inc > full/5 {
				t.Errorf("%s cc batch=%d: union-find incremental (%.4fs) should be >5x cheaper than full (%.4fs)",
					machine, minBatch, inc, full)
			}
		}
	}
}
