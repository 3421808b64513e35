package analytics_test

import (
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/memsim"
)

// BenchmarkPageRank times one whole pagerank run — the kernel a dense
// power-law pass spends most of its host time in — under the GBBS profile
// on compressed RMAT16 with 96 virtual threads. Runtime construction is
// outside the timer.
func BenchmarkPageRank(b *testing.B) {
	g := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 32, false)
	g.BuildIn()
	opts := frameworks.GBBS.Options("pr", 96)
	opts.Backend = core.BackendCompressed
	b.ReportAllocs()
	b.StopTimer()
	for range b.N {
		r, err := core.New(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		analytics.PageRank(r, analytics.PRDefaultTolerance, analytics.PRDefaultMaxRounds)
		b.StopTimer()
		r.Close()
	}
}
