package bench

import (
	"bytes"
	"strings"
	"testing"

	"pmemgraph/internal/gen"
)

// TestFigCompressReducesSlowTierReads pins the acceptance criterion of
// the compressed backend: on at least one Table 3 generator it must cut
// the simulated adjacency (slow-tier CSR) read bytes by >= 25% relative
// to the raw backend, and figCompress must surface that in its records.
func TestFigCompressReducesSlowTierReads(t *testing.T) {
	if testing.Short() {
		t.Skip("graph experiments are slow")
	}
	sink := &Sink{}
	var buf bytes.Buffer
	if err := Run("figCompress", Options{Scale: gen.ScaleSmall, Quick: true, Out: &buf, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Backend") {
		t.Fatalf("figCompress table missing backend column:\n%s", buf.String())
	}

	// Pair raw/compressed records by (machine, graph, app).
	type key struct{ machine, graph, app string }
	raw := map[key]uint64{}
	zread := map[key]uint64{}
	for _, r := range sink.Records() {
		if r.Experiment != "figCompress" || r.BytesRead == 0 {
			continue
		}
		k := key{r.Machine, r.Graph, r.App}
		switch r.Backend {
		case "raw":
			raw[k] = r.BytesRead
		case "compressed":
			zread[k] = r.BytesRead
		}
	}
	if len(raw) == 0 || len(raw) != len(zread) {
		t.Fatalf("unpaired figCompress records: %d raw vs %d compressed", len(raw), len(zread))
	}
	best := 0.0
	bestGraph := ""
	for k, rb := range raw {
		zb, ok := zread[k]
		if !ok {
			t.Fatalf("no compressed twin for %+v", k)
		}
		if reduction := 1 - float64(zb)/float64(rb); reduction > best {
			best = reduction
			bestGraph = k.graph
		}
	}
	if best < 0.25 {
		t.Fatalf("best adjacency-read reduction %.1f%% (on %s); want >= 25%% on at least one generator", 100*best, bestGraph)
	}
	t.Logf("best adjacency-read reduction: %.1f%% on %s", 100*best, bestGraph)
}
