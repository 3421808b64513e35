package frameworks

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// planFixture is one epoch transition on a small graph: a batch applied as
// an overlay over base, the next epoch materialized as a CSR, and cc/pr
// seeds recorded on base. A sealed fixture carries weights and the
// transpose on both graphs, the way the serving registry seals them; an
// unsealed one carries neither.
type planFixture struct {
	base, next *graph.Graph
	ov         *graph.Overlay
	delta      graph.Delta
	seeds      map[string]*Seed
}

func newPlanFixture(t *testing.T, sealed bool) *planFixture {
	t.Helper()
	base := gen.ErdosRenyi(120, 720, 11)
	if sealed {
		base.AddRandomWeights(DefaultWeightMax, DefaultWeightSeed)
		base.BuildIn()
	}
	ups, err := gen.UpdateStream(base, 1, 6, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	ov, delta, err := graph.ApplyOverlay(base, ups[0])
	if err != nil {
		t.Fatal(err)
	}
	next := ov.Materialize()
	if sealed {
		next.BuildIn()
	}
	f := &planFixture{base: base, next: next, ov: ov, delta: delta, seeds: map[string]*Seed{}}
	// Seeds depend only on the graph's edges; recording them on a copy
	// keeps this fixture's base exactly as sealed (or not) as asked.
	seedBase := gen.ErdosRenyi(120, 720, 11)
	for _, app := range []string{"cc", "pr"} {
		pl := Galois.Plan(seedBase, app, 8, DefaultParams(seedBase))
		pl.Incremental = true
		if _, f.seeds[app], err = pl.Run(testMachine()); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// planCell is one point of the execution matrix: profile × app × view ×
// full/incremental.
type planCell struct {
	profile   Profile
	app, view string
	inc       bool
}

func (c planCell) String() string {
	mode := "full"
	if c.inc {
		mode = "inc"
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.profile.Name, c.app, c.view, mode)
}

func planCells() []planCell {
	var cells []planCell
	for _, p := range All() {
		for _, app := range Apps() {
			for _, view := range []string{"csr", "overlay", "sharded"} {
				for _, inc := range []bool{false, true} {
					cells = append(cells, planCell{p, app, view, inc})
				}
			}
		}
	}
	return cells
}

// plan builds the cell's plan over the fixture's next epoch with the
// profile's options and the graph's default parameters.
func (f *planFixture) plan(c planCell) Plan {
	pl := Plan{Profile: c.profile, App: c.app, Opts: c.profile.Options(c.app, 8), Params: DefaultParams(f.next)}
	switch c.view {
	case "csr":
		pl.Graph = f.next
	case "overlay":
		pl.Overlay = f.ov
	case "sharded":
		pl.Graph, pl.Shards = f.next, 2
	}
	if c.inc {
		pl.Incremental, pl.Seed, pl.Delta = true, f.seeds[c.app], &f.delta
	}
	return pl
}

// runCell runs pl and reports a panic as a test failure.
func runCell(t *testing.T, name string, pl Plan) (res *analytics.Result, err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: panicked: %v", name, p)
			res, err = nil, fmt.Errorf("panicked")
		}
	}()
	res, _, err = pl.Run(testMachine())
	return res, err
}

// validPlan returns a plan Validate accepts over the given view of a sealed
// fixture: Galois pr, the one app that has an incremental variant, a BSP
// kernel and a transpose precondition.
func validPlan(f *planFixture, view string) Plan {
	return f.plan(planCell{profile: Galois, app: "pr", view: view})
}

func TestPlanValidateAcceptsValidPlans(t *testing.T) {
	f := newPlanFixture(t, true)
	for _, view := range []string{"csr", "overlay", "sharded"} {
		if err := validPlan(f, view).Validate(); err != nil {
			t.Errorf("%s: valid plan refused: %v", view, err)
		}
	}
}

// TestPlanValidateNamesTheField mutates one valid plan at a time and
// asserts each refusal names the field at fault.
func TestPlanValidateNamesTheField(t *testing.T) {
	f := newPlanFixture(t, true)
	raw := newPlanFixture(t, false)
	otherPart, err := graph.NewPartition(f.base, 2)
	if err != nil {
		t.Fatal(err)
	}
	unweightedIn := gen.ErdosRenyi(120, 720, 11)
	unweightedIn.BuildIn()
	past := graph.Node(f.next.NumNodes())
	for _, tc := range []struct {
		name, view string
		mutate     func(*Plan)
		field      string
	}{
		{"unknown app", "csr", func(pl *Plan) { pl.App = "pagerankz" }, "App"},
		{"app the profile lacks", "csr", func(pl *Plan) { pl.Profile, pl.App = GraphIt, "bc" }, "Profile"},
		{"no view", "csr", func(pl *Plan) { pl.Graph = nil }, "Graph"},
		{"graph beside another overlay", "overlay", func(pl *Plan) { pl.Graph = f.next }, "Graph"},
		{"incremental bfs", "csr", func(pl *Plan) { pl.App, pl.Incremental = "bfs", true }, "Incremental"},
		{"negative shards", "csr", func(pl *Plan) { pl.Shards = -1 }, "Shards"},
		{"partition without shards", "csr", func(pl *Plan) { pl.Partition = otherPart }, "Partition"},
		{"sharded incremental", "sharded", func(pl *Plan) { pl.Incremental = true }, "Incremental"},
		{"sharded overlay", "overlay", func(pl *Plan) { pl.Shards = 2 }, "Overlay"},
		{"sharded tc", "sharded", func(pl *Plan) { pl.App = "tc" }, "Shards"},
		{"partition of another graph", "sharded", func(pl *Plan) { pl.Partition = otherPart }, "Partition"},
		{"sharded without transpose", "sharded", func(pl *Plan) { pl.Graph = raw.next }, "Graph"},
		{"sharded sssp without weights", "sharded", func(pl *Plan) { pl.App, pl.Graph = "sssp", unweightedIn }, "Graph"},
		{"unweighted sssp runtime", "csr", func(pl *Plan) { pl.App = "sssp" }, "Opts.Weighted"},
		{"pr without the transpose", "csr", func(pl *Plan) { pl.Opts.BothDirections = false }, "Opts.BothDirections"},
		{"weighted run over an unweighted overlay", "overlay", func(pl *Plan) { pl.Overlay, pl.Opts.Weighted = raw.ov, true }, "Overlay"},
		{"overlay without the transpose", "overlay", func(pl *Plan) { pl.Overlay = raw.ov }, "Overlay"},
		{"csr source past the end", "csr", func(pl *Plan) { pl.Params.Source = past }, "Params.Source"},
		{"overlay source past the end", "overlay", func(pl *Plan) { pl.Params.Source = past }, "Params.Source"},
		{"sharded source past the end", "sharded", func(pl *Plan) { pl.Params.Source = past }, "Params.Source"},
	} {
		pl := validPlan(f, tc.view)
		tc.mutate(&pl)
		err := pl.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "frameworks: "+tc.field+": ") {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
	}
}

// TestOutOfRangeSourceIsAnError: every forward the repo benchmark compiles
// against refuses a source past |V| with an error naming Params.Source —
// none of them may index past the graph.
func TestOutOfRangeSourceIsAnError(t *testing.T) {
	f := newPlanFixture(t, true)
	part, err := graph.NewPartition(f.next, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams(f.next)
	params.Source = 1000
	for name, run := range map[string]func() error{
		"RunOnOpts": func() error {
			_, err := Galois.RunOnOpts(testMachine(), f.next, "bfs", Galois.Options("bfs", 8), params)
			return err
		},
		"RunOverlayOnOpts": func() error {
			_, err := Galois.RunOverlayOnOpts(testMachine(), f.ov, "bfs", Galois.Options("bfs", 8), params)
			return err
		},
		"RunIncrementalOnOpts": func() error {
			_, _, err := Galois.RunIncrementalOnOpts(testMachine(), f.next, "cc", Galois.Options("cc", 8), params, f.seeds["cc"], &f.delta)
			return err
		},
		"RunIncrementalOverlayOnOpts": func() error {
			_, _, err := Galois.RunIncrementalOverlayOnOpts(testMachine(), f.ov, "pr", Galois.Options("pr", 8), params, f.seeds["pr"], &f.delta)
			return err
		},
		"RunShardedOnOpts": func() error {
			_, err := RunShardedOnOpts(testMachine().Config(), part, "bfs", Galois.Options("bfs", 8), params)
			return err
		},
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: source %d on %d nodes panicked: %v", name, params.Source, f.next.NumNodes(), p)
				}
			}()
			if err := run(); err == nil || !strings.Contains(err.Error(), "Params.Source") {
				t.Errorf("%s: error %v does not name Params.Source", name, err)
			}
		}()
	}
}

// TestValidatedPlansNeverPanic is the proof that the kernels' panic
// assertions guard only callers that bypass a plan: over every cell of the
// execution matrix, with the profile's options and with each precondition
// knocked out (weights, transpose, an in-range source), on sealed and
// unsealed graphs, a plan is either refused by Validate or runs without
// panicking.
func TestValidatedPlansNeverPanic(t *testing.T) {
	sealed := newPlanFixture(t, true)
	probe := newPlanFixture(t, false) // validated against, never run
	variants := map[string]func(*Plan){
		"options":       func(*Plan) {},
		"unweighted":    func(pl *Plan) { pl.Opts.Weighted = false },
		"one-direction": func(pl *Plan) { pl.Opts.BothDirections = false },
		"source-past":   func(pl *Plan) { pl.Params.Source = graph.Node(sealed.next.NumNodes()) },
	}
	accepted, refused := 0, 0
	for _, c := range planCells() {
		for vname, mutate := range variants {
			for _, isSealed := range []bool{true, false} {
				f := sealed
				if !isSealed {
					f = probe
				}
				pl := f.plan(c)
				mutate(&pl)
				if pl.Validate() != nil {
					refused++
					continue
				}
				accepted++
				if !isSealed {
					// Runs seal CSR views lazily, so each unsealed run gets
					// its own fixture.
					pl = newPlanFixture(t, false).plan(c)
					mutate(&pl)
				}
				if _, err := runCell(t, fmt.Sprintf("%s/%s/sealed=%v", c, vname, isSealed), pl); err != nil {
					t.Errorf("%s/%s/sealed=%v: accepted plan failed: %v", c, vname, isSealed, err)
				}
			}
		}
	}
	t.Logf("%d plans accepted and ran, %d refused", accepted, refused)
}

// TestPlanSweepMatchesGolden pins the bytes of every cell of the execution
// matrix a sealed fixture admits: each accepted plan's canonical Result
// (analytics.MarshalResult, timing and counters included) is hashed into
// testdata/plan_sweep.golden, and the set of accepted cells is pinned with
// it. The digests were recorded from the per-view entry points
// (RunOnOpts, RunOverlayOnOpts, RunIncremental*OnOpts, RunShardedOnOpts)
// before they became forwards of Plan.Run. Regenerate only for a
// deliberate charging change:
//
//	go test ./internal/frameworks -run TestPlanSweepMatchesGolden -update
func TestPlanSweepMatchesGolden(t *testing.T) {
	f := newPlanFixture(t, true)
	var got bytes.Buffer
	for _, c := range planCells() {
		pl := f.plan(c)
		if pl.Validate() != nil {
			continue
		}
		res, err := runCell(t, c.String(), pl)
		if err != nil {
			t.Errorf("%s: %v", c, err)
			continue
		}
		data, err := analytics.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", c, sha256.Sum256(data))
	}
	path := filepath.Join("testdata", "plan_sweep.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("plan sweep drifted from %s:\n--- want\n%s--- got\n%s", path, want, got.Bytes())
	}
}
