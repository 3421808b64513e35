package bench

import (
	"fmt"
	"math"
	"time"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// figSealCompactDiv mirrors the serving registry's default compaction
// threshold (server.DefaultCompactDiv): an overlay is merged into a fresh
// CSR once it holds more than |E|/20 entries, so the O(E) merge amortizes
// over |E|/(20*batch) applied batches.
const figSealCompactDiv = 20

// FigSeal measures the real (wall-clock, not simulated) cost of sealing
// one update batch into a servable epoch — the serving layer's
// ApplyUpdates hot path — under three strategies:
//
//	rebuild          the old O(E) path: graph.ApplyUpdates builds a full
//	                 new CSR, then seal (weights/in/compression)
//	overlay          the delta-overlay path: Overlay.Apply folds the batch
//	                 in O(|delta| + batch·log d)
//	overlay+compact  overlay apply plus the amortized share of the O(E)
//	                 materialize+seal the background compactor pays once
//	                 per |E|/(div·batch) batches
//
// Outputs are byte-identical across strategies (ApplyUpdates IS
// ApplyOverlay().Materialize(), locked by the overlay conformance suite);
// this experiment exists to show the apply-path asymptotics that justify
// the overlay form: per-batch cost independent of |E| for small batches.
func FigSeal(opt Options) error {
	w := table(opt.Out)
	fmt.Fprintln(w, "Graph\tBatch\tStrategy\tSeal (ms)\tvs rebuild")
	graphs := []string{"clueweb12", "rmat32"}
	batches := []int{16, 256, 4096}
	if opt.Quick {
		graphs = graphs[:1]
		batches = []int{16, 1024}
	}
	const reps = 5
	for _, gname := range graphs {
		g0, _ := input(gname, opt.Scale)
		for _, batch := range batches {
			stream, err := gen.UpdateStream(g0, 1, batch, uint64(0x5EA1<<8)+uint64(batch), false)
			if err != nil {
				return fmt.Errorf("bench: generating %s batch of %d: %w", gname, batch, err)
			}
			ups := stream[0]

			rebuild, err := minSecs(reps, func() error {
				g1, _, err := graph.ApplyUpdates(g0, ups)
				if err != nil {
					return err
				}
				sealEpoch(g1)
				return nil
			})
			if err != nil {
				return fmt.Errorf("bench: rebuild %s batch of %d: %w", gname, batch, err)
			}
			ov0 := graph.NewOverlay(g0)
			overlay, err := minSecs(reps, func() error {
				_, _, err := ov0.Apply(ups)
				return err
			})
			if err != nil {
				return fmt.Errorf("bench: overlay %s batch of %d: %w", gname, batch, err)
			}
			// The compactor's O(E) merge, amortized over the batches an
			// overlay absorbs before crossing the |E|/div threshold.
			ov1, _, err := ov0.Apply(ups)
			if err != nil {
				return err
			}
			merge, err := minSecs(2, func() error {
				sealEpoch(ov1.Materialize())
				return nil
			})
			if err != nil {
				return err
			}
			perCompact := g0.NumEdges() / figSealCompactDiv / int64(batch)
			if perCompact < 1 {
				perCompact = 1
			}
			amortized := overlay + merge/float64(perCompact)

			for _, row := range []struct {
				strategy string
				secs     float64
			}{
				{"rebuild", rebuild},
				{"overlay", overlay},
				{"overlay+compact", amortized},
			} {
				vs := "-"
				if row.strategy != "rebuild" && row.secs > 0 {
					vs = fmt.Sprintf("%.0fx", rebuild/row.secs)
				}
				fmt.Fprintf(w, "%s\t%d\t%s\t%.4f\t%s\n",
					gname, batch, row.strategy, row.secs*1e3, vs)
				opt.record(Record{
					Graph: gname, Algorithm: row.strategy, Batch: batch,
					WallSeconds: row.secs,
				})
			}
		}
	}
	fmt.Fprintln(w, "(wall-clock per-batch epoch-seal cost; all strategies produce byte-identical epochs — overlay decouples apply cost from |E|)")
	return w.Flush()
}

// sealEpoch does to a rebuilt graph what the serving registry does before
// it becomes an epoch: frameworks.Seal, then both compressed encodings.
func sealEpoch(g *graph.Graph) {
	frameworks.Seal(g)
	g.CompressOut()
	g.CompressIn()
}

// minSecs times f reps times and returns the fastest run — the standard
// wall-clock denoiser for sub-millisecond operations.
func minSecs(reps int, f func() error) (float64, error) {
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best, nil
}
