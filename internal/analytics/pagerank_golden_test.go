package analytics_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// prGoldenThreads is the virtual thread count of every golden run: not a
// power of two, so chunk boundaries fall mid-word in the frontier bits.
const prGoldenThreads = 12

// prGoldenInput is one graph the golden pins: the sealed base, one update
// batch with inserts and deletes, the batch folded into an overlay over the
// base and merged into a rebuilt CSR, and the batch's delta for each.
type prGoldenInput struct {
	name            string
	base, csr       *graph.Graph
	ov              *graph.Overlay
	csrDelta, ovDel *graph.Delta
}

func newPRGoldenInput(t *testing.T, name string, base *graph.Graph) prGoldenInput {
	t.Helper()
	base.BuildIn()
	ups, err := gen.UpdateStream(base, 1, 48, 0x9A6E, true)
	if err != nil {
		t.Fatal(err)
	}
	csr, csrDelta, err := graph.ApplyUpdates(base, ups[0])
	if err != nil {
		t.Fatal(err)
	}
	csr.BuildIn()
	ov, ovDel, err := graph.ApplyOverlay(base, ups[0])
	if err != nil {
		t.Fatal(err)
	}
	return prGoldenInput{name: name, base: base, csr: csr, ov: ov, csrDelta: &csrDelta, ovDel: &ovDel}
}

// prGoldenRuntime builds a runtime for one cell on a fresh scaled Optane
// machine: over the overlay when ov is set, else over g.
func prGoldenRuntime(t *testing.T, g *graph.Graph, ov *graph.Overlay, opts core.Options) *core.Runtime {
	t.Helper()
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	var r *core.Runtime
	var err error
	if ov != nil {
		r, err = core.NewOverlay(m, ov, opts)
	} else {
		r, err = core.New(m, g, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// prGoldenSweep runs every cell once and returns one "cell sha256" line per
// cell, hashing the canonical Result (seconds, counters, trace, ranks).
func prGoldenSweep(t *testing.T, inputs []prGoldenInput) []byte {
	t.Helper()
	var out bytes.Buffer
	tol, rounds := analytics.PRDefaultTolerance, analytics.PRDefaultMaxRounds
	for _, in := range inputs {
		for _, p := range frameworks.All() {
			for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
				opts := p.Options("pr", prGoldenThreads)
				opts.Backend = backend
				_, seed := analytics.PageRankRecord(prGoldenRuntime(t, in.base, nil, opts), tol, rounds)
				for _, form := range []string{"csr", "overlay"} {
					g, ov, delta := in.csr, (*graph.Overlay)(nil), in.csrDelta
					if form == "overlay" {
						g, ov, delta = nil, in.ov, in.ovDel
					}
					for _, mode := range []string{"full", "incremental"} {
						r := prGoldenRuntime(t, g, ov, opts)
						var res *analytics.Result
						if mode == "full" {
							res = analytics.PageRank(r, tol, rounds)
						} else {
							res, _ = analytics.PageRankIncremental(r, seed, delta, tol, rounds)
						}
						data, err := analytics.MarshalResult(res)
						if err != nil {
							t.Fatal(err)
						}
						fmt.Fprintf(&out, "%s/%s/%s/%s/%s %x\n", in.name, p.Name, backend, form, mode, sha256.Sum256(data))
					}
				}
			}
		}
	}
	return out.Bytes()
}

// TestPageRankMatchesGolden pins the bytes of unsharded PageRank — the whole
// of a dense power-law pass — on every profile × {raw, compressed} ×
// {CSR, overlay with inserts and deletes} × {full, incremental} cell, at
// GOMAXPROCS 1, 3 and 8. A host-side speed-up of the pull round must leave
// every line untouched; regenerate only for a deliberate charging change:
//
//	go test ./internal/analytics -run TestPageRankMatchesGolden -update
func TestPageRankMatchesGolden(t *testing.T) {
	inputs := []prGoldenInput{
		newPRGoldenInput(t, "rmat11", gen.RMAT(11, 8, 0.57, 0.19, 0.19, 7, false)),
		newPRGoldenInput(t, "crawl3k", gen.WebCrawl(3000, 6, 40, 11)),
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	path := filepath.Join("testdata", "pagerank.golden")
	var want []byte
	for i, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got := prGoldenSweep(t, inputs)
		if i == 0 && *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want == nil {
			var err error
			if want, err = os.ReadFile(path); err != nil {
				t.Fatalf("reading golden file: %v (regenerate with -update)", err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: pagerank drifted from %s:\n--- want\n%s--- got\n%s", procs, path, want, got)
		}
	}
}
