package frameworks

import (
	"fmt"
	"strings"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/memsim"
)

func testMachine() *memsim.Machine {
	return memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
}

func TestProfileInventoryMatchesPaper(t *testing.T) {
	// §6.1: kcore missing from GAP and GraphIt; bc missing from GraphIt.
	if GAP.Supports("kcore") || GraphIt.Supports("kcore") {
		t.Error("GAP/GraphIt should not implement kcore")
	}
	if GraphIt.Supports("bc") {
		t.Error("GraphIt should not implement bc")
	}
	for _, app := range Apps() {
		if !Galois.Supports(app) || !GBBS.Supports(app) {
			t.Errorf("Galois and GBBS should support %s", app)
		}
	}
	if len(All()) != 4 {
		t.Error("expected 4 frameworks")
	}
}

func TestOnlyGaloisUsesHugePagesAndSparseWorklists(t *testing.T) {
	for _, p := range All() {
		if p.Name == "Galois" {
			if !p.ExplicitHugePages || !p.SparseWorklists || !p.NonVertexPrograms || !p.AppNUMA {
				t.Error("Galois profile missing its §6.1 capabilities")
			}
			continue
		}
		if p.ExplicitHugePages || p.SparseWorklists || p.NonVertexPrograms || p.AppNUMA {
			t.Errorf("%s should not have Galois-only capabilities", p.Name)
		}
		if !p.BothDirections {
			t.Errorf("%s should allocate both directions", p.Name)
		}
	}
}

func TestOptionsPageSizes(t *testing.T) {
	g := Galois.Options("bfs", 8)
	if g.PageSize != memsim.PageHuge || g.THP {
		t.Error("Galois should use explicit huge pages")
	}
	o := GAP.Options("bfs", 8)
	if o.PageSize != memsim.PageSmall || !o.THP {
		t.Error("GAP should use 4KB pages with THP")
	}
}

func TestGaloisPerAppPolicies(t *testing.T) {
	bfs := Galois.Options("bfs", 8)
	if bfs.GraphPolicy != memsim.Interleaved {
		t.Error("Galois bfs should interleave")
	}
	pr := Galois.Options("pr", 8)
	if pr.GraphPolicy != memsim.Blocked {
		t.Error("Galois pr should use blocked placement")
	}
	bc := Galois.Options("bc", 8)
	if bc.GraphPolicy != memsim.Blocked {
		t.Error("Galois bc should use blocked placement")
	}
}

func TestDefaultParams(t *testing.T) {
	g := gen.Star(100)
	p := DefaultParams(g)
	if p.Source != 0 {
		t.Errorf("source = %d, want star center 0", p.Source)
	}
	if p.K < 2 {
		t.Errorf("k = %d", p.K)
	}
	if p.Tol <= 0 || p.Rounds <= 0 {
		t.Error("pr params unset")
	}
	dense := gen.Complete(60)
	if DefaultParams(dense).K <= DefaultParams(g).K {
		t.Error("denser graph should get larger k")
	}
}

func TestRunRejectsUnsupportedApp(t *testing.T) {
	g := gen.Path(10)
	if _, _, err := GraphIt.Plan(g, "bc", 4, DefaultParams(g)).Run(testMachine()); err == nil {
		t.Error("GraphIt bc should fail")
	}
	if _, _, err := GAP.Plan(g, "kcore", 4, DefaultParams(g)).Run(testMachine()); err == nil {
		t.Error("GAP kcore should fail")
	}
	if _, _, err := Galois.Plan(g, "nonsense", 4, DefaultParams(g)).Run(testMachine()); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAllFrameworksRunAllSupportedApps(t *testing.T) {
	g := gen.ErdosRenyi(400, 3200, 9)
	Seal(g)
	params := DefaultParams(g)
	for _, p := range All() {
		for _, app := range Apps() {
			if !p.Supports(app) {
				continue
			}
			res, _, err := p.Plan(g, app, 8, params).Run(testMachine())
			if err != nil {
				t.Errorf("%s/%s: %v", p.Name, app, err)
				continue
			}
			if res.Seconds <= 0 {
				t.Errorf("%s/%s: no simulated time", p.Name, app)
			}
			if res.App != app {
				t.Errorf("%s/%s: result app = %q", p.Name, app, res.App)
			}
		}
	}
}

// TestCapabilityGateMatrix pins the full §6.1 profile × kernel matrix
// from an explicit table — not from the Supports bits themselves, so a
// regression in the profile definitions cannot silently re-shape the
// matrix. Every supported pair must execute; every unsupported pair must
// return the documented capability error.
func TestCapabilityGateMatrix(t *testing.T) {
	// true = the paper reports a number for this (framework, app) cell.
	expected := map[string]map[string]bool{
		"Galois":  {"bc": true, "bfs": true, "cc": true, "kcore": true, "pr": true, "sssp": true, "tc": true},
		"GAP":     {"bc": true, "bfs": true, "cc": true, "kcore": false, "pr": true, "sssp": true, "tc": true},
		"GBBS":    {"bc": true, "bfs": true, "cc": true, "kcore": true, "pr": true, "sssp": true, "tc": true},
		"GraphIt": {"bc": false, "bfs": true, "cc": true, "kcore": false, "pr": true, "sssp": true, "tc": true},
	}
	// The capability flags also select which algorithm each profile can
	// express for the variant-bearing apps (§6.1). Engine-based kernels
	// label themselves by traversal, so GraphIt's bulk-synchronous
	// Bellman-Ford and plain label propagation both read "dir-opt" — the
	// key assertion is that its missing bucketed worklists and non-vertex
	// operators keep delta-step and labelprop-sc out of reach.
	expectedAlgo := map[string]map[string]string{
		"Galois":  {"sssp": "delta-step", "cc": "labelprop-sc"},
		"GAP":     {"sssp": "delta-step", "cc": "pointer-jump"},
		"GBBS":    {"sssp": "delta-step", "cc": "pointer-jump"},
		"GraphIt": {"sssp": "dir-opt", "cc": "dir-opt"},
	}
	if len(All()) != len(expected) {
		t.Fatalf("profile count %d does not match expectation table", len(All()))
	}
	g := gen.ErdosRenyi(400, 3200, 9)
	Seal(g)
	params := DefaultParams(g)
	for _, p := range All() {
		row, ok := expected[p.Name]
		if !ok {
			t.Fatalf("no expectation row for profile %s", p.Name)
		}
		for _, app := range Apps() {
			res, _, err := p.Plan(g, app, 8, params).Run(testMachine())
			if row[app] {
				if err != nil {
					t.Errorf("%s/%s: supported pair failed: %v", p.Name, app, err)
					continue
				}
				if res.App != app || res.Seconds <= 0 {
					t.Errorf("%s/%s: bad result app=%q seconds=%v", p.Name, app, res.App, res.Seconds)
				}
				if want := expectedAlgo[p.Name][app]; want != "" && res.Algorithm != want {
					t.Errorf("%s/%s: algorithm %q, want %q", p.Name, app, res.Algorithm, want)
				}
				continue
			}
			if err == nil {
				t.Errorf("%s/%s: unsupported pair executed", p.Name, app)
				continue
			}
			want := fmt.Sprintf("%s does not implement %s", p.Name, app)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s/%s: error %q does not contain the documented capability message %q", p.Name, app, err, want)
			}
		}
	}
}

func TestFrameworksAgreeOnAnswers(t *testing.T) {
	g := gen.WebCrawl(2500, 6, 50, 31)
	Seal(g)
	params := DefaultParams(g)
	var bfsDists [][]uint32
	for _, p := range All() {
		res, _, err := p.Plan(g, "bfs", 8, params).Run(testMachine())
		if err != nil {
			t.Fatalf("%s bfs: %v", p.Name, err)
		}
		bfsDists = append(bfsDists, res.Dist)
	}
	for i := 1; i < len(bfsDists); i++ {
		for v := range bfsDists[0] {
			if bfsDists[i][v] != bfsDists[0][v] {
				t.Fatalf("framework %d disagrees on dist[%d]", i, v)
			}
		}
	}
}

func TestGaloisFastestOnHighDiameterBFS(t *testing.T) {
	// Figure 9's qualitative claim: Galois beats the dense/vertex-only
	// frameworks on high-diameter inputs.
	g := gen.WebCrawl(15000, 8, 300, 41)
	Seal(g)
	params := DefaultParams(g)
	galois, _, err := Galois.Plan(g, "bfs", 16, params).Run(testMachine())
	if err != nil {
		t.Fatal(err)
	}
	graphit, _, err := GraphIt.Plan(g, "bfs", 16, params).Run(testMachine())
	if err != nil {
		t.Fatal(err)
	}
	if galois.Seconds >= graphit.Seconds {
		t.Errorf("Galois bfs (%.4fs) should beat GraphIt (%.4fs) on a high-diameter web crawl", galois.Seconds, graphit.Seconds)
	}
}
