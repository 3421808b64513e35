package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pmemgraph/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// graphDigest is the sha256 of a graph's out-direction CSR arrays, little
// endian: equal digests mean byte-identical OutOffsets and OutEdges.
func graphDigest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	h := sha256.New()
	for _, arr := range []any{g.OutOffsets, g.OutEdges} {
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sealedDigest seals g the way a served input is sealed — random weights,
// the transpose, both compressed encodings — and returns the sha256 of
// every array that adds, little endian, in that order: OutWeights, then
// InOffsets/InEdges/InWeights, then ByteOffsets and Data of CompressOut
// and of CompressIn.
func sealedDigest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	g.AddRandomWeights(64, 0xC0FFEE)
	g.BuildIn()
	zo, zi := g.CompressOut(), g.CompressIn()
	h := sha256.New()
	for _, arr := range []any{g.OutWeights, g.InOffsets, g.InEdges, g.InWeights, zo.ByteOffsets, zo.Data, zi.ByteOffsets, zi.Data} {
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// streamDigest is the sha256 of an update stream, batch by batch.
func streamDigest(t *testing.T, stream [][]graph.EdgeUpdate) string {
	t.Helper()
	h := sha256.New()
	for _, batch := range stream {
		if err := binary.Write(h, binary.LittleEndian, uint64(len(batch))); err != nil {
			t.Fatal(err)
		}
		for _, u := range batch {
			if err := binary.Write(h, binary.LittleEndian, []uint32{uint32(u.Op), u.Src, u.Dst, u.Weight}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// generatorDigests renders one "name sha256" line per generated output.
func generatorDigests(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	graphs := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"webcrawl/n=3", func() *graph.Graph { return WebCrawl(3, 4, 10, 1) }},
		{"webcrawl/n=3000", func() *graph.Graph { return WebCrawl(3000, 8, 60, 7) }},
		{"webcrawl/n=20000", func() *graph.Graph { return WebCrawl(20_000, 20, 300, 12) }},
		{"rmat/scale=14", func() *graph.Graph { return RMAT(14, 8, 0.57, 0.19, 0.19, 32, false) }},
		{"rmat/scale=14/sym", func() *graph.Graph { return RMAT(14, 8, 0.57, 0.19, 0.19, 32, true) }},
		{"rmat/scale=3", func() *graph.Graph { return RMAT(3, 2, 0.57, 0.19, 0.19, 5, false) }},
		{"rmat/scale=12/uniform", func() *graph.Graph { return RMAT(12, 8, 0.25, 0.25, 0.25, 41, false) }},
		{"rmat/scale=12/skew", func() *graph.Graph { return RMAT(12, 8, 0.45, 0.15, 0.15, 42, false) }},
		{"rmat/scale=12/corner", func() *graph.Graph { return RMAT(12, 8, 1, 0, 0, 43, false) }},
		{"rmat/scale=12/noupperleft", func() *graph.Graph { return RMAT(12, 8, 0, 0.5, 0.5, 44, false) }},
		{"kron/scale=12", func() *graph.Graph { return Kron(12, 16, 30) }},
		{"protein/n=3000", func() *graph.Graph { return Protein(3000, 40, 30, 100) }},
		{"erdosrenyi/n=500", func() *graph.Graph { return ErdosRenyi(500, 3000, 7) }},
		{"grid/20x30", func() *graph.Graph { return Grid(20, 30) }},
		{"star/n=50", func() *graph.Graph { return Star(50) }},
	}
	for _, c := range graphs {
		fmt.Fprintf(&b, "%s %s\n", c.name, graphDigest(t, c.build()))
	}
	for _, c := range graphs {
		switch c.name {
		case "rmat/scale=14", "kron/scale=12", "webcrawl/n=20000", "protein/n=3000":
			fmt.Fprintf(&b, "sealed/%s %s\n", c.name, sealedDigest(t, c.build()))
		}
	}

	base := Kron(10, 8, 3)
	weighted := Kron(10, 8, 3)
	weighted.AddRandomWeights(64, 9)
	tiny := Grid(2, 3)
	streams := []struct {
		name    string
		g       *graph.Graph
		batches int
		per     int
		deletes bool
	}{
		{"stream/unweighted", base, 50, 64, false},
		{"stream/unweighted/deletes", base, 50, 64, true},
		{"stream/weighted", weighted, 50, 64, false},
		{"stream/weighted/deletes", weighted, 50, 64, true},
		{"stream/grid2x3/deletes", tiny, 20, 3, true},
	}
	for _, c := range streams {
		stream, err := UpdateStream(c.g, c.batches, c.per, 11, c.deletes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", c.name, streamDigest(t, stream))
	}
	return b.String()
}

// TestGeneratorsMatchGolden pins every generator's output bytes at several
// GOMAXPROCS settings: a generator that parallelizes its work must still be
// a pure function of its parameters and seed. The golden must not be
// regenerated to make a change pass; rewrite it only when a generator's
// output is meant to change, with
//
//	go test ./internal/gen -run TestGeneratorsMatchGolden -update
func TestGeneratorsMatchGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got string
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		lines := generatorDigests(t)
		if got != "" && lines != got {
			t.Fatalf("generator output differs at GOMAXPROCS=%d:\n%s--- vs\n%s", procs, lines, got)
		}
		got = lines
	}

	path := filepath.Join("testdata", "generators.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("generator output drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}
