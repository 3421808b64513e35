package server

import (
	"os"
	"path/filepath"
	"testing"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

func TestRegistryAddSealsGraphs(t *testing.T) {
	reg := NewRegistry()
	g := gen.WebCrawl(400, 4, 30, 3)
	if g.HasIn() || g.HasWeights() {
		t.Fatal("generator unexpectedly pre-sealed the graph")
	}
	info, err := reg.Add("web", "direct", g)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasIn() || !g.HasWeights() {
		t.Error("Add must seal the graph (transpose + weights) before sharing it")
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Errorf("info = %+v does not match graph", info)
	}
	if info.CSRBytes != g.CSRBytes() {
		t.Errorf("CSRBytes = %d, want %d", info.CSRBytes, g.CSRBytes())
	}
	ep, ok := reg.Resolve("web")
	if !ok || ep.Base != g || ep.Overlay != nil || ep.Info != info {
		t.Error("Resolve did not return the registered graph")
	}
}

// snapshot returns name's current epoch as a standalone sealed CSR graph:
// the resident graph itself for csr form, a materialized + sealed copy for
// overlay form (O(E) — conformance references and update-batch generation).
func snapshot(reg *Registry, name string) (*graph.Graph, GraphInfo, bool) {
	ep, ok := reg.Resolve(name)
	if !ok {
		return nil, GraphInfo{}, false
	}
	g := ep.Base
	if ep.Overlay != nil {
		g = ep.Overlay.Materialize()
		seal(g)
	}
	return g, ep.Info, true
}

// currentInfo returns the resident GraphInfo of name (zero when absent).
func currentInfo(reg *Registry, name string) GraphInfo {
	ep, ok := reg.Resolve(name)
	if !ok {
		return GraphInfo{}
	}
	return ep.Info
}

func TestRegistryRejectsInvalidAndDuplicateNames(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "a|b", "a b", "a/b", "café"} {
		if _, err := reg.Add(bad, "direct", gen.Path(4)); err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if _, err := reg.Add("ok-name_1.2", "direct", gen.Path(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add("ok-name_1.2", "direct", gen.Path(4)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRegistryEpochAdvancesAcrossReload(t *testing.T) {
	reg := NewRegistry()
	first, err := reg.Add("g", "direct", gen.Path(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Evict("g") {
		t.Fatal("evict failed")
	}
	if reg.Evict("g") {
		t.Error("second evict reported success")
	}
	second, err := reg.Add("g", "direct", gen.Cycle(6))
	if err != nil {
		t.Fatal(err)
	}
	if second.Epoch <= first.Epoch {
		t.Errorf("reload epoch %d not past %d: stale cache keys could alias", second.Epoch, first.Epoch)
	}
}

func TestRegistryLoadInput(t *testing.T) {
	reg := NewRegistry()
	info, err := reg.LoadInput("kron", "kron30", gen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes == 0 || info.Source != "gen:kron30@32" {
		t.Errorf("unexpected info %+v", info)
	}
	if _, err := reg.LoadInput("x", "not-an-input", gen.ScaleSmall); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestRegistryLoadCSRFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := gen.ErdosRenyi(300, 1800, 11)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := NewRegistry()
	info, err := reg.LoadCSRFile("disk", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Errorf("loaded %d/%d, want %d/%d", info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}

	if _, err := reg.LoadCSRFile("missing", filepath.Join(dir, "nope.csr")); err == nil {
		t.Error("missing file accepted")
	}
	badPath := filepath.Join(dir, "bad.csr")
	if err := os.WriteFile(badPath, []byte("not a csr"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadCSRFile("bad", badPath); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestRegistryListAndResidentBytes(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := reg.Add(name, "direct", gen.Path(8)); err != nil {
			t.Fatal(err)
		}
	}
	list := reg.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[1].Name != "mid" || list[2].Name != "zeta" {
		t.Errorf("list not sorted by name: %+v", list)
	}
	var want int64
	for _, info := range list {
		want += info.CSRBytes
	}
	if got := reg.ResidentBytes(); got != want {
		t.Errorf("ResidentBytes = %d, want %d", got, want)
	}
}
