package analytics

import (
	"math"
	"sync"
	"testing"

	"pmemgraph/internal/engine"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// Equivalence tests for the operator-engine kernels on the ScaleSmall
// paper inputs: every engine configuration of a kernel must produce the
// same Result output (distances, labels, core membership, ranks within
// float tolerance) as the sequential reference implementation.

var (
	equivMu    sync.Mutex
	equivCache = map[string]*graph.Graph{}
)

// scaleSmallInput generates (and caches) one Table 3 stand-in.
func scaleSmallInput(t *testing.T, name string) *graph.Graph {
	t.Helper()
	equivMu.Lock()
	defer equivMu.Unlock()
	if g, ok := equivCache[name]; ok {
		return g
	}
	g, _, err := gen.Input(name, gen.ScaleSmall)
	if err != nil {
		t.Fatalf("generating %s: %v", name, err)
	}
	g.BuildIn()
	equivCache[name] = g
	return g
}

// equivInputs returns the inputs exercised: a fast diverse pair under
// -short, all six Table 3 stand-ins otherwise.
func equivInputs(t *testing.T) []string {
	if testing.Short() {
		return []string{"kron30", "clueweb12"}
	}
	return []string{"kron30", "clueweb12", "uk14", "iso_m100", "rmat32", "wdc12"}
}

// bfsConfigs spans the engine's configuration space: each entry says
// whether the runtime needs the transpose.
var bfsConfigs = []struct {
	name     string
	cfg      engine.Config
	bothDirs bool
}{
	{"sparse-push", engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}, false},
	{"dense-push", engine.Config{Rep: engine.RepDense, Dir: engine.DirPush}, false},
	{"dir-opt", engine.Config{Rep: engine.RepDense, Dir: engine.DirAuto}, true},
	{"hybrid", engine.Config{Rep: engine.RepAuto, Dir: engine.DirAuto}, true},
}

func TestEngineBFSConfigsMatchReferenceOnScaleSmall(t *testing.T) {
	for _, name := range equivInputs(t) {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			src, _ := g.MaxOutDegreeNode()
			want := refBFS(g, src)
			for _, c := range bfsConfigs {
				opts := galoisOpts()
				opts.BothDirections = c.bothDirs
				res := BFS(testRuntime(t, g, opts), c.cfg, src)
				if i, ok := distsEqual(want, res.Dist); !ok {
					t.Fatalf("%s: dist[%d] = %d, want %d", c.name, i, res.Dist[i], want[i])
				}
				if len(res.Trace) != res.Rounds {
					t.Errorf("%s: trace %d entries for %d rounds", c.name, len(res.Trace), res.Rounds)
				}
			}
		})
	}
}

func TestEngineCCConfigsMatchReferenceOnScaleSmall(t *testing.T) {
	inputs := equivInputs(t)
	if len(inputs) > 3 {
		inputs = inputs[:3]
	}
	ccConfigs := []struct {
		name     string
		cfg      engine.Config
		shortcut bool
	}{
		{"sc-sparse", engine.Config{Rep: engine.RepSparse, Dir: engine.DirPush}, true},
		{"plain-dense", engine.Config{Rep: engine.RepDense, Dir: engine.DirPush}, false},
		{"plain-dir-opt", engine.Config{Rep: engine.RepDense, Dir: engine.DirAuto}, false},
		{"sc-hybrid", engine.Config{Rep: engine.RepAuto, Dir: engine.DirAuto}, true},
	}
	for _, name := range inputs {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			want := refComponents(g)
			for _, c := range ccConfigs {
				res := CCLabelProp(testRuntime(t, g, bothDirOpts()), c.cfg, c.shortcut)
				if !componentsAgree(want, res.Labels) {
					t.Fatalf("%s: component partition differs from union-find reference", c.name)
				}
			}
		})
	}
}

func TestEngineSSSPBellmanFordConfigsOnScaleSmall(t *testing.T) {
	for _, name := range []string{"kron30", "clueweb12"} {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			g.AddRandomWeights(64, 99)
			src, _ := g.MaxOutDegreeNode()
			want := refSSSP(g, src)
			for _, c := range []struct {
				name     string
				cfg      engine.Config
				bothDirs bool
			}{
				{"dense-push", engine.Config{Rep: engine.RepDense, Dir: engine.DirPush}, false},
				{"dir-opt", engine.Config{Rep: engine.RepDense, Dir: engine.DirAuto}, true},
			} {
				opts := weightedOpts()
				opts.BothDirections = c.bothDirs
				res := SSSPBellmanFord(testRuntime(t, g, opts), c.cfg, src)
				if i, ok := distsEqual(want, res.Dist); !ok {
					t.Fatalf("%s: dist[%d] = %d, want %d", c.name, i, res.Dist[i], want[i])
				}
			}
		})
	}
}

func TestEngineKCoreRepsOnScaleSmall(t *testing.T) {
	for _, name := range []string{"kron30", "iso_m100"} {
		t.Run(name, func(t *testing.T) {
			g := scaleSmallInput(t, name)
			k := int64(8)
			want := refKCore(g, k)
			for _, cfg := range []engine.Config{
				{Rep: engine.RepSparse},
				{Rep: engine.RepDense},
				{Rep: engine.RepAuto},
			} {
				res := KCore(testRuntime(t, g, bothDirOpts()), cfg, k)
				for v := range want {
					if want[v] != res.InCore[v] {
						t.Fatalf("rep %v: node %d in-core = %v, want %v", cfg.Rep, v, res.InCore[v], want[v])
					}
				}
			}
		})
	}
}

func TestEngineBrandesRepsOnScaleSmall(t *testing.T) {
	g := scaleSmallInput(t, "kron30")
	src, _ := g.MaxOutDegreeNode()
	want := refBC(g, src)
	for _, cfg := range []engine.Config{
		{Rep: engine.RepSparse},
		{Rep: engine.RepDense},
		{Rep: engine.RepAuto},
	} {
		res := Brandes(testRuntime(t, g, galoisOpts()), cfg, src)
		for v := range want {
			if math.Abs(want[v]-res.Centrality[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("rep %v: bc[%d] = %g, want %g", cfg.Rep, v, res.Centrality[v], want[v])
			}
		}
	}
}

func TestEnginePageRankMatchesReferenceOnScaleSmall(t *testing.T) {
	g := scaleSmallInput(t, "clueweb12")
	const rounds = 12
	want := refPageRank(g, 1e-15, rounds)
	res := PageRank(testRuntime(t, g, bothDirOpts()), 1e-15, rounds)
	if res.Rounds != rounds {
		t.Fatalf("rounds = %d, want %d", res.Rounds, rounds)
	}
	for v := range want {
		if math.Abs(want[v]-res.Rank[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %g, want %g", v, res.Rank[v], want[v])
		}
	}
}
