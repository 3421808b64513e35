package memsim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// chargeOp is one charging primitive driven by a thread: next returns a
// deterministic pseudo-random element index of a.
type chargeOp struct {
	name string
	run  func(t *Thread, a *Array, next func() int64)
}

var chargeOps = []chargeOp{
	{"Read", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 64; k++ {
			a.Read(t, next())
		}
	}},
	{"Write", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 64; k++ {
			a.Write(t, next())
		}
	}},
	{"ReadN", func(t *Thread, a *Array, next func() int64) {
		// 4 elements is a gather inside one line; 48 streams (> 256 B).
		for k := 0; k < 32; k++ {
			n := int64(4 + 44*(k%2))
			a.ReadN(t, next()%(a.Len()-n), n)
		}
	}},
	{"ReadRange", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 8; k++ {
			lo := next() % (a.Len() - 4096)
			a.ReadRange(t, lo, lo+4096)
		}
	}},
	{"WriteRange", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 8; k++ {
			lo := next() % (a.Len() - 4096)
			a.WriteRange(t, lo, lo+4096)
		}
	}},
	{"RandomN", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 8; k++ {
			a.RandomN(t, 64, k%2 == 1)
		}
	}},
	{"RandomBatch", func(t *Thread, a *Array, next func() int64) {
		for k := 0; k < 4; k++ {
			a.RandomBatch(t, 256, k%2 == 1)
		}
	}},
}

// chargeIndices returns the deterministic pseudo-random index stream of a
// that chargeOps[oi] draws from on thread id.
func chargeIndices(oi, id int, a *Array) func() int64 {
	r := uint64(oi+1)*0x9E3779B97F4A7C15 ^ uint64(id+1)*0xBF58476D1CE4E5B9
	return func() int64 {
		r = r*6364136223846793005 + 1442695040888963407
		return int64(r>>1) % a.Len()
	}
}

// chargeBody is the region body that runs chargeOps[oi] over a.
func chargeBody(oi int, a *Array) func(t *Thread) {
	return func(t *Thread) { chargeOps[oi].run(t, a, chargeIndices(oi, t.ID, a)) }
}

// chargeRegions are the regions the charge sweep runs each op in: pinned
// local, pinned remote, and 64 threads over both sockets and SMT siblings.
var chargeRegions = []struct {
	name string
	run  func(m *Machine, body func(t *Thread)) RegionStats
}{
	{"local", func(m *Machine, body func(t *Thread)) RegionStats { return m.ParallelPinned(0, 1, body) }},
	{"remote", func(m *Machine, body func(t *Thread)) RegionStats { return m.ParallelPinned(1, 1, body) }},
	{"x64", func(m *Machine, body func(t *Thread)) RegionStats { return m.Parallel(64, body) }},
}

// formatRegion prints a region's elapsed time and every Counters field, in
// declaration order, exactly.
func formatRegion(s RegionStats) string {
	f := []string{strconv.FormatFloat(s.ElapsedNs, 'g', -1, 64)}
	v := reflect.ValueOf(s.Counters)
	for i := 0; i < v.NumField(); i++ {
		switch x := v.Field(i); x.Kind() {
		case reflect.Float64:
			f = append(f, strconv.FormatFloat(x.Float(), 'g', -1, 64))
		default:
			f = append(f, strconv.FormatUint(x.Uint(), 10))
		}
	}
	return strings.Join(f, " ")
}

// TestChargesMatchGolden pins every charge path of every memory tier to the
// bit: machine {memory mode, DRAM, app-direct with app-direct and with plain
// arrays} x migration x policy x pages x footprint {below, above the 3 MB
// near-memory} x primitive, each run pinned local, pinned remote, and as one
// 64-thread region (both sockets, SMT siblings). charges.golden holds each
// region's RegionStats; traffic.golden holds the array's Traffic() after
// each region, the per-array totals the region barrier folds in.
// Regenerate deliberately, only when the charging model is meant to change,
// with
//
//	go test ./internal/memsim -run TestChargesMatchGolden -update
func TestChargesMatchGolden(t *testing.T) {
	machines := []struct {
		name      string
		cfg       MachineConfig
		appDirect bool
	}{
		{"mm", OptaneMachine(), false},
		{"dram", DRAMMachine(), false},
		{"ad", AppDirectMachine(), true},
		{"ad-plain", AppDirectMachine(), false},
	}
	pages := []struct {
		name string
		size int64
		thp  bool
	}{{"4k", PageSmall, false}, {"2m", PageHuge, false}, {"thp", PageSmall, true}}
	footprints := []struct {
		name  string
		bytes int64
	}{{"small", 1 << 20}, {"large", 8 << 20}}

	var got, traffic bytes.Buffer
	got.WriteString("# per machine/migration/policy/pages/footprint: op region elapsed_ns, then every Counters field in order\n")
	traffic.WriteString("# per machine/migration/policy/pages/footprint: op region, then the array's Traffic() read and written after it\n")
	for _, mc := range machines {
		for _, mig := range []bool{false, true} {
			for _, policy := range []Policy{Interleaved, Blocked, Local} {
				for _, pg := range pages {
					for _, fp := range footprints {
						fmt.Fprintf(&got, "%s mig=%v %v %s %s\n", mc.name, mig, policy, pg.name, fp.name)
						fmt.Fprintf(&traffic, "%s mig=%v %v %s %s\n", mc.name, mig, policy, pg.name, fp.name)
						cfg := Scaled(mc.cfg, 64) // 3 MB near-memory per socket
						cfg.NUMAMigration = mig
						m := NewMachine(cfg)
						a := m.MustAlloc("charges", fp.bytes/8, 8, AllocOpts{
							Policy: policy, PageSize: pg.size, THP: pg.thp, AppDirect: mc.appDirect,
						})
						for oi, op := range chargeOps {
							for _, rg := range chargeRegions {
								fmt.Fprintf(&got, "  %s %s %s\n", op.name, rg.name, formatRegion(rg.run(m, chargeBody(oi, a))))
								read, written := a.Traffic()
								fmt.Fprintf(&traffic, "  %s %s %d %d\n", op.name, rg.name, read, written)
							}
						}
						m.Free(a)
					}
				}
			}
		}
	}

	checkGolden(t, "charges.golden", got.Bytes())
	checkGolden(t, "traffic.golden", traffic.Bytes())
}

// checkGolden compares got with testdata/name line by line, naming the
// first drifted line and the section header above it, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i, line := range gotLines {
		if !strings.HasPrefix(line, " ") {
			section = line
		}
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s drifted at line %d (%s):\n want %s\n  got %s", path, i+1, section, w, line)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the sweep printed %d", path, len(wantLines), len(gotLines))
	}
}

// BenchmarkCharge times the host cost of one call of each hot charging
// primitive on one thread, on the memory-mode and DRAM tiers, with the
// shapes benchmark/probes.go's memsim probe uses. Pair it against a parent
// checkout for a quick host-time check of a charge-path change.
func BenchmarkCharge(b *testing.B) {
	const n = 1 << 20
	for _, mc := range []struct {
		name string
		cfg  MachineConfig
	}{{"mm", OptaneMachine()}, {"dram", DRAMMachine()}} {
		m := NewMachine(Scaled(mc.cfg, 32))
		a := m.MustAlloc("bench", n, 4, AllocOpts{Policy: Interleaved})
		// A node array (offsets, labels) beside the edge array a, both on
		// huge pages, for the per-vertex charge sequence of a shard worker:
		// the offset pair, the row's block, the row's label touches.
		huge := AllocOpts{Policy: Interleaved, PageSize: PageHuge}
		nodes := m.MustAlloc("bench.nodes", n/16, 8, huge)
		edges := m.MustAlloc("bench.edges", n, 4, huge)
		for _, op := range []struct {
			name string
			run  func(t *Thread, i int64)
		}{
			{"Read", func(t *Thread, i int64) { a.Read(t, i) }},
			{"ReadRange4096", func(t *Thread, i int64) {
				if i+4096 > n {
					i = 0
				}
				a.ReadRange(t, i, i+4096)
			}},
			{"RandomN64", func(t *Thread, i int64) { a.RandomN(t, 64, false) }},
			{"RandomBatch64", func(t *Thread, i int64) { a.RandomBatch(t, 64, false) }},
			{"VertexScan16", func(t *Thread, i int64) {
				v := i % (n/16 - 1)
				nodes.ReadN(t, v, 2)
				edges.ReadRange(t, v*16, v*16+16)
				nodes.RandomN(t, 16, false)
			}},
		} {
			b.Run(mc.name+"/"+op.name, func(b *testing.B) {
				m.Sequential(func(t *Thread) {
					idx := int64(12345)
					for k := 0; k < b.N; k++ {
						idx = (idx*6364136223846793005 + 1442695040888963407) & (1<<62 - 1)
						op.run(t, idx%n)
					}
				})
			})
		}
	}
}
