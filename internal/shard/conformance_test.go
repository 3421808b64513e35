package shard_test

// The sharded-determinism conformance suite: the six sharded kernels must
// produce bitwise-identical outputs across shard counts, GOMAXPROCS, and
// storage backends, and their simulated clocks must match the pinned golden.
// CI runs this under -race in the uncached step, so it doubles as the proof
// that concurrent shard workers share no unordered mutable state.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// conformanceGraph is sealed for every sharded app: weights for sssp, the
// transpose for cc/pr/kcore — both BEFORE partitioning, since shard-local
// graphs alias the source arrays.
func conformanceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.WebCrawl(1200, 5, 40, 17)
	g.AddRandomWeights(frameworks.DefaultWeightMax, frameworks.DefaultWeightSeed)
	g.BuildIn()
	return g
}

// resultBytes serializes every output array of a Result so "identical"
// means bitwise, not approximately: float64 ranks and centralities are
// compared at full bit width.
func resultBytes(t *testing.T, res *analytics.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, arr := range []any{res.Dist, res.Labels, res.Rank, res.InCore, res.Centrality} {
		if err := binary.Write(&buf, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// runKernel dispatches app on a shard engine exactly as a sharded
// frameworks.Plan does.
func runKernel(e *shard.Engine, app string, p frameworks.Params) *analytics.Result {
	switch app {
	case "bfs":
		return e.BFS(p.Source)
	case "sssp":
		return e.SSSP(p.Source)
	case "cc":
		return e.CC()
	case "pr":
		return e.PR(p.Tol, p.Rounds)
	case "kcore":
		return e.KCore(p.K)
	default:
		return e.BC(p.Source)
	}
}

// clockLine renders every simulated clock of a finished sharded run.
// Floats use the shortest round-tripping form, so equal lines mean
// bit-equal clocks.
func clockLine(app string, shards int, backend core.Backend, res *analytics.Result, e *shard.Engine) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	line := fmt.Sprintf("%s shards=%d backend=%v rounds=%d seconds=%s comm=%s bytes=%d per_shard=",
		app, shards, backend, e.Rounds(), f(res.Seconds), f(e.CommSeconds()), e.BytesSent())
	for i, s := range e.PerShardSeconds() {
		if i > 0 {
			line += ","
		}
		line += f(s)
	}
	return line + "\n"
}

func TestShardedConformance(t *testing.T) {
	g := conformanceGraph(t)
	params := frameworks.DefaultParams(g)
	apps := []string{"bc", "bfs", "cc", "kcore", "pr", "sssp"}
	machine := memsim.Scaled(memsim.OptaneMachine(), 32)

	parts := map[int]*graph.Partition{}
	for _, shards := range []int{1, 2, 8} {
		p, err := graph.NewPartition(g, shards)
		if err != nil {
			t.Fatal(err)
		}
		parts[shards] = p
	}

	run := func(t *testing.T, app string, shards int, backend core.Backend) (out []byte, clocks string) {
		t.Helper()
		e, err := shard.New(parts[shards], shard.ServingConfig(machine, 4, backend))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		res := runKernel(e, app, params)
		return resultBytes(t, res), clockLine(app, shards, backend, res, e)
	}

	// The golden pins Rounds, Seconds, CommSeconds, BytesSent and
	// PerShardSeconds per (kernel, shard count, backend): any drift in the
	// charging model fails here. Regenerate deliberately with
	//
	//	go test ./internal/shard -run TestShardedConformance -update
	var golden bytes.Buffer
	ran := 0

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, app := range apps {
		app := app
		t.Run(app, func(t *testing.T) {
			ran++
			runtime.GOMAXPROCS(runtime.NumCPU())
			opts := core.GaloisDefaults(4)
			ref, err := frameworks.RunShardedOnOpts(machine, parts[1], app, opts, params)
			if err != nil {
				t.Fatal(err)
			}
			want := resultBytes(t, ref)
			for _, shards := range []int{1, 2, 8} {
				for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
					wantClocks := ""
					for _, procs := range []int{1, 3, 8} {
						runtime.GOMAXPROCS(procs)
						got, clocks := run(t, app, shards, backend)
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: output differs at shards=%d GOMAXPROCS=%d backend=%v",
								app, shards, procs, backend)
						}
						if wantClocks == "" {
							wantClocks = clocks
						} else if clocks != wantClocks {
							t.Fatalf("%s: clocks differ at shards=%d GOMAXPROCS=%d backend=%v:\n%s%s",
								app, shards, procs, backend, wantClocks, clocks)
						}
					}
					golden.WriteString(wantClocks)
				}
			}
		})
	}
	if t.Failed() || ran != len(apps) {
		return // a -run filter selected a subset: nothing complete to compare
	}

	path := filepath.Join("testdata", "clocks.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, golden.Len())
		return
	}
	wantGolden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(golden.Bytes(), wantGolden) {
		t.Errorf("sharded clocks drifted from %s:\n--- want\n%s--- got\n%s", path, wantGolden, golden.Bytes())
	}
}

// TestShardedMatchesRoundBasedSingleMachine pins the sharded kernels to
// their single-machine round-based counterparts on the values that are
// exactly comparable (bfs levels, sssp distances, cc labels, pr ranks) —
// including pr under zero and negative tolerance / round caps, which both
// paths must read as "use the defaults".
func TestShardedMatchesRoundBasedSingleMachine(t *testing.T) {
	g := conformanceGraph(t)
	params := frameworks.DefaultParams(g)
	prZero, prNegative := params, params
	prZero.Tol, prZero.Rounds = 0, 0
	prNegative.Tol, prNegative.Rounds = -1, -3
	machine := memsim.Scaled(memsim.OptaneMachine(), 32)
	part, err := graph.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.GaloisDefaults(4)
	for _, tc := range []struct {
		app    string
		params frameworks.Params
	}{
		{"bfs", params}, {"sssp", params}, {"cc", params},
		{"pr", params}, {"pr", prZero}, {"pr", prNegative},
	} {
		app := tc.app
		sharded, err := frameworks.RunShardedOnOpts(machine, part, app, opts, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		single, _, err := frameworks.Galois.Plan(g, app, 4, tc.params).Run(memsim.NewMachine(machine))
		if err != nil {
			t.Fatal(err)
		}
		switch app {
		case "bfs", "sssp":
			for v := range single.Dist {
				if sharded.Dist[v] != single.Dist[v] {
					t.Fatalf("%s: dist[%d] = %d, want %d", app, v, sharded.Dist[v], single.Dist[v])
				}
			}
		case "cc":
			// Galois label-prop shortcuts to component minima too.
			for v := range single.Labels {
				if sharded.Labels[v] != single.Labels[v] {
					t.Fatalf("cc: label[%d] = %d, want %d", v, sharded.Labels[v], single.Labels[v])
				}
			}
		case "pr":
			if sharded.Rounds != single.Rounds || single.Rounds == 0 {
				t.Fatalf("pr %+v: %d sharded rounds vs %d single-machine", tc.params, sharded.Rounds, single.Rounds)
			}
			for v := range single.Rank {
				if math.Float64bits(sharded.Rank[v]) != math.Float64bits(single.Rank[v]) {
					t.Fatalf("pr %+v: rank[%d] = %v, want %v", tc.params, v, sharded.Rank[v], single.Rank[v])
				}
			}
		}
	}
}

// TestShardedRefusesUnsealedSources locks the sealing precondition into
// the API: partitions cut before weights/transpose exist cannot run the
// apps that need them.
func TestShardedRefusesUnsealedSources(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 3) // no weights, no transpose
	part, err := graph.NewPartition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	machine := memsim.Scaled(memsim.OptaneMachine(), 32)
	opts := core.GaloisDefaults(2)
	params := frameworks.DefaultParams(g)
	for _, app := range []string{"sssp", "cc", "pr", "kcore"} {
		if _, err := frameworks.RunShardedOnOpts(machine, part, app, opts, params); err == nil {
			t.Errorf("%s accepted an unsealed source", app)
		}
	}
	if _, err := frameworks.RunShardedOnOpts(machine, part, "tc", opts, params); err == nil {
		t.Error("tc has no sharded kernel but was accepted")
	}
}
