package frameworks

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
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
		Seal(base)
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
		Seal(next)
	}
	f := &planFixture{base: base, next: next, ov: ov, delta: delta, seeds: map[string]*Seed{}}
	// Seeds depend only on the graph's edges; recording them on a sealed
	// copy serves the unsealed fixture too.
	seedBase := gen.ErdosRenyi(120, 720, 11)
	Seal(seedBase)
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
// full/incremental × algorithm variant ("" is the profile's own choice).
type planCell struct {
	profile   Profile
	app, view string
	inc       bool
	variant   string
}

func (c planCell) String() string {
	mode := "full"
	if c.inc {
		mode = "inc"
	}
	s := fmt.Sprintf("%s/%s/%s/%s", c.profile.Name, c.app, c.view, mode)
	if c.variant != "" {
		s += "/" + c.variant
	}
	return s
}

func planCells() []planCell {
	var cells []planCell
	for _, p := range All() {
		for _, app := range Apps() {
			for _, view := range []string{"csr", "overlay", "sharded"} {
				for _, inc := range []bool{false, true} {
					for _, variant := range append([]string{""}, variantNames()...) {
						cells = append(cells, planCell{p, app, view, inc, variant})
					}
				}
			}
		}
	}
	return cells
}

// plan builds the cell's plan over the fixture's next epoch with the
// profile's options (plus the transpose a dir-opt plan pulls over) and the
// graph's default parameters.
func (f *planFixture) plan(c planCell) Plan {
	pl := Plan{Profile: c.profile, App: c.app, Variant: c.variant, Opts: c.profile.Options(c.app, 8), Params: DefaultParams(f.next)}
	if c.variant == "dir-opt" {
		pl.Opts.BothDirections = true
	}
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
		{"unknown variant", "csr", func(pl *Plan) { pl.Variant = "hybrid-wl" }, "Variant"},
		{"variant of another app", "csr", func(pl *Plan) { pl.Variant = "dense-wl" }, "Variant"},
		{"sparse-wl without sparse worklists", "csr", func(pl *Plan) { pl.Profile, pl.App, pl.Variant = GAP, "bfs", "sparse-wl" }, "Variant"},
		{"labelprop-sc without non-vertex programs", "csr", func(pl *Plan) { pl.Profile, pl.App, pl.Variant = GBBS, "cc", "labelprop-sc" }, "Variant"},
		{"delta-step without buckets", "csr", func(pl *Plan) { pl.Profile, pl.App, pl.Variant = GraphIt, "sssp", "delta-step" }, "Variant"},
		{"dir-opt without the transpose", "csr", func(pl *Plan) { pl.App, pl.Variant, pl.Opts.BothDirections = "bfs", "dir-opt", false }, "Opts.BothDirections"},
		{"sharded variant", "sharded", func(pl *Plan) { pl.App, pl.Variant = "bfs", "dense-wl" }, "Variant"},
		{"incremental variant", "csr", func(pl *Plan) { pl.App, pl.Variant, pl.Incremental = "cc", "labelprop-sc", true }, "Variant"},
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
// execution matrix (algorithm variants included), with the profile's
// options and with each precondition knocked out (weights, transpose, an
// in-range source), on sealed and unsealed graphs, a plan is either
// refused by Validate or runs without panicking.
func TestValidatedPlansNeverPanic(t *testing.T) {
	sealed := newPlanFixture(t, true)
	probe := newPlanFixture(t, false)
	knockouts := map[string]func(*Plan){
		"options":       func(*Plan) {},
		"unweighted":    func(pl *Plan) { pl.Opts.Weighted = false },
		"one-direction": func(pl *Plan) { pl.Opts.BothDirections = false },
		"source-past":   func(pl *Plan) { pl.Params.Source = graph.Node(sealed.next.NumNodes()) },
	}
	accepted, refused := 0, 0
	for _, c := range planCells() {
		for kname, mutate := range knockouts {
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
				if _, err := runCell(t, fmt.Sprintf("%s/%s/sealed=%v", c, kname, isSealed), pl); err != nil {
					t.Errorf("%s/%s/sealed=%v: accepted plan failed: %v", c, kname, isSealed, err)
				}
			}
		}
	}
	t.Logf("%d plans accepted and ran, %d refused", accepted, refused)
}

// TestPlanIsAFunctionOfItsFields: a plan's bytes depend on its fields, not
// on what ran on its graph before it. Every plan over profile × app ×
// algorithm variant × backend that Validate accepts runs once on a fresh
// sealed input and again on one shared input after every plan has run on
// it; the canonical Result bytes (Seconds and Algorithm included) must be
// equal.
func TestPlanIsAFunctionOfItsFields(t *testing.T) {
	input := func() *graph.Graph {
		g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7, false)
		Seal(g)
		return g
	}
	type cell struct {
		profile Profile
		app     string
		variant string
		backend core.Backend
	}
	plan := func(c cell, g *graph.Graph) Plan {
		pl := c.profile.Plan(g, c.app, 8, DefaultParams(g))
		pl.Variant = c.variant
		pl.Opts.Backend = c.backend
		if c.variant == "dir-opt" {
			pl.Opts.BothDirections = true
		}
		return pl
	}
	shared := input()
	var cells []cell
	for _, p := range All() {
		for _, app := range Apps() {
			for _, variant := range append([]string{""}, variantNames()...) {
				for _, b := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
					if c := (cell{p, app, variant, b}); plan(c, shared).Validate() == nil {
						cells = append(cells, c)
					}
				}
			}
		}
	}
	run := func(c cell, g *graph.Graph) (*analytics.Result, []byte) {
		res, _, err := plan(c, g).Run(testMachine())
		if err != nil {
			t.Fatalf("%s/%s/%s/%v: %v", c.profile.Name, c.app, c.variant, c.backend, err)
		}
		data, err := analytics.MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	for _, c := range cells {
		run(c, shared)
	}
	for _, c := range cells {
		fresh, freshBytes := run(c, input())
		after, afterBytes := run(c, shared)
		if !bytes.Equal(freshBytes, afterBytes) {
			t.Errorf("%s/%s/%s/%v: fresh %s %.6gs, after the other plans %s %.6gs",
				c.profile.Name, c.app, c.variant, c.backend, fresh.Algorithm, fresh.Seconds, after.Algorithm, after.Seconds)
		}
	}
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

// TestTopologyTrafficMatchesGolden pins the per-array traffic kernels
// charge against the graph's topology: for every profile × app the profile
// implements, on the plan sweep's sealed input over the raw and the
// compressed backend, it records TopologyReadBytes() and each topology
// array's Traffic() into testdata/topology_traffic.golden. The runtime is
// built with core.New and run through Profile.Run, and the sweep must print
// the same bytes at GOMAXPROCS 1, 3 and 8. Regenerate only for a deliberate
// charging change:
//
//	go test ./internal/frameworks -run TestTopologyTrafficMatchesGolden -update
func TestTopologyTrafficMatchesGolden(t *testing.T) {
	g := newPlanFixture(t, true).next
	sweep := func() string {
		var b strings.Builder
		for _, p := range All() {
			for _, app := range Apps() {
				if !p.Supports(app) {
					continue
				}
				for _, backend := range []core.Backend{core.BackendRaw, core.BackendCompressed} {
					opts := p.Options(app, 8)
					opts.Backend = backend
					r, err := core.New(testMachine(), g, opts)
					if err != nil {
						t.Fatalf("%s/%s/%v: %v", p.Name, app, backend, err)
					}
					if _, err := p.Run(r, app, DefaultParams(g)); err != nil {
						t.Fatalf("%s/%s/%v: %v", p.Name, app, backend, err)
					}
					r.Close()
					fmt.Fprintf(&b, "%s/%s/%v topology_read=%d", p.Name, app, backend, r.TopologyReadBytes())
					for _, a := range []*memsim.Array{r.Offsets, r.Edges, r.Weights, r.InOffsets, r.InEdges, r.InWeights} {
						if a != nil {
							read, written := a.Traffic()
							fmt.Fprintf(&b, " %s=%d/%d", a.Name(), read, written)
						}
					}
					b.WriteString("\n")
				}
			}
		}
		return b.String()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got string
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		lines := sweep()
		if got != "" && lines != got {
			t.Fatalf("topology traffic differs at GOMAXPROCS=%d:\n%s--- vs\n%s", procs, lines, got)
		}
		got = lines
	}
	path := filepath.Join("testdata", "topology_traffic.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("topology traffic drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestPrefixTrafficMatchesGolden pins the one charge path the other
// goldens leave open: early-exit pull prefixes (AdjView.ChargePrefix) over
// the compressed backend, plain and under an overlay with inserts and
// deletes. bfs is the only kernel whose pull rounds stop a scan early, so
// the sweep runs it for every profile from three sources over an RMAT
// input, weighted (weight varints interleaved in the blocks) and not. Each
// line holds the result's Algorithm, Rounds and Seconds plus every
// topology and delta array's Traffic(), and the sweep must print the same
// bytes at GOMAXPROCS 1, 3 and 8. Regenerate only for a deliberate
// charging change:
//
//	go test ./internal/frameworks -run TestPrefixTrafficMatchesGolden -update
func TestPrefixTrafficMatchesGolden(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		ov   *graph.Overlay
	}
	var inputs []input
	for _, weighted := range []bool{false, true} {
		g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 3, false)
		name := "unweighted"
		if weighted {
			g.AddRandomWeights(DefaultWeightMax, DefaultWeightSeed)
			name = "weighted"
		}
		g.BuildIn()
		ups, err := gen.UpdateStream(g, 1, 96, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		ov, _, err := graph.ApplyOverlay(g, ups[0])
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, g, nil}, input{name, g, ov})
	}
	sweep := func() string {
		var b strings.Builder
		for _, in := range inputs {
			form := "csr"
			if in.ov != nil {
				form = "overlay"
			}
			for _, p := range All() {
				opts := p.Options("bfs", 8)
				opts.Backend = core.BackendCompressed
				params := DefaultParams(in.g)
				for _, src := range []graph.Node{params.Source, 1, 777} {
					var r *core.Runtime
					var err error
					if in.ov != nil {
						r, err = core.NewOverlay(testMachine(), in.ov, opts)
					} else {
						r, err = core.New(testMachine(), in.g, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					params.Source = src
					res, err := p.Run(r, "bfs", params)
					if err != nil {
						t.Fatal(err)
					}
					r.Close()
					fmt.Fprintf(&b, "%s/%s/%s/src%d %s rounds=%d seconds=%s", in.name, form, p.Name, src,
						res.Algorithm, res.Rounds, strconv.FormatFloat(res.Seconds, 'g', -1, 64))
					for _, a := range []*memsim.Array{r.Offsets, r.Edges, r.InOffsets, r.InEdges, r.DeltaOut, r.DeltaIn} {
						if a != nil {
							read, written := a.Traffic()
							fmt.Fprintf(&b, " %s=%d/%d", a.Name(), read, written)
						}
					}
					b.WriteString("\n")
				}
			}
		}
		return b.String()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got string
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		lines := sweep()
		if got != "" && lines != got {
			t.Fatalf("prefix traffic differs at GOMAXPROCS=%d:\n%s--- vs\n%s", procs, lines, got)
		}
		got = lines
	}
	path := filepath.Join("testdata", "prefix_traffic.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("prefix traffic drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}
