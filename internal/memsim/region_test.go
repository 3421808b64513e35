package memsim

import (
	"strings"
	"testing"
)

// untouch clears a's first-touch bitmap, so the next region faults every
// page it touches as on a freshly allocated array.
func untouch(a *Array) {
	for w := range a.touched {
		a.touched[w].Store(0)
	}
}

// TestRegionReuseMatchesFreshMachine checks that a pooled thread starts
// every region exactly as a new one does. One machine first runs warm-up
// regions (96 threads, one thread pinned to socket 1, 24 threads over a
// second array) whose first touches, migrations, TLB fills, RNG draws,
// line memos and traffic would leak into later regions if any reset missed
// them; the last warm-up read is the first line the sweep reads. Then every
// charge-sweep region runs on it and on a fresh machine with the same
// allocations, both arrays untouched, and the RegionStats and the
// traffic each region adds must be equal.
func TestRegionReuseMatchesFreshMachine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    MachineConfig
		policy Policy
		page   int64
		thp    bool
		bytes  int64
	}{
		{"mm/interleaved/4k", OptaneMachine(), Interleaved, PageSmall, false, 8 << 20},
		{"dram/blocked/thp", DRAMMachine(), Blocked, PageSmall, true, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Scaled(tc.cfg, 64)
			cfg.NUMAMigration = true
			build := func() (*Machine, *Array, *Array) {
				m := NewMachine(cfg)
				opts := AllocOpts{Policy: tc.policy, PageSize: tc.page, THP: tc.thp}
				return m, m.MustAlloc("a", tc.bytes/8, 8, opts), m.MustAlloc("b", tc.bytes/8, 8, opts)
			}
			warm, wa, wb := build()
			warm.Parallel(96, func(th *Thread) {
				next := chargeIndices(7, th.ID, wa)
				for k := 0; k < 256; k++ {
					wa.Write(th, next())
					wa.Read(th, next())
				}
				wa.RandomN(th, 512, false)
			})
			warm.Parallel(24, func(th *Thread) {
				next := chargeIndices(8, th.ID, wb)
				for k := 0; k < 128; k++ {
					wb.Read(th, next())
				}
				lo := next() % (wb.Len() - 4096)
				wb.WriteRange(th, lo, lo+4096)
			})
			warm.ParallelPinned(1, 1, func(th *Thread) {
				next := chargeIndices(9, th.ID, wa)
				for k := 0; k < 256; k++ {
					wa.Read(th, next())
				}
				wa.Read(th, chargeIndices(0, th.ID, wa)())
			})
			if c := warm.Counters(); c.MinorFaults == 0 || c.Migrations == 0 {
				t.Fatalf("warm-up made %d first touches and %d migrations, want both", c.MinorFaults, c.Migrations)
			}

			for oi, op := range chargeOps {
				for _, rg := range chargeRegions {
					fresh, fa, _ := build()
					untouch(wa)
					untouch(wb)
					wr0, ww0 := wa.Traffic()
					got := rg.run(warm, chargeBody(oi, wa))
					want := rg.run(fresh, chargeBody(oi, fa))
					if got != want {
						t.Fatalf("%s %s: reused threads charged\n %s\nfresh threads\n %s", op.name, rg.name, formatRegion(got), formatRegion(want))
					}
					wr, ww := wa.Traffic()
					fr, fw := fa.Traffic()
					if wr-wr0 != fr || ww-ww0 != fw {
						t.Fatalf("%s %s: reused threads added traffic %d/%d, fresh %d/%d", op.name, rg.name, wr-wr0, ww-ww0, fr, fw)
					}
				}
			}
		})
	}
}

// TestRegionAllocationsAreConstant bounds what a region costs the host once
// a machine has run its widest region: a 96-thread no-op region allocates
// no Thread, TLB or goroutine state per virtual thread, only a small
// constant for the worker hand-off.
func TestRegionAllocationsAreConstant(t *testing.T) {
	m := NewMachine(OptaneMachine())
	noop := func(*Thread) {}
	region := func(threads int) float64 {
		m.Parallel(threads, noop)
		return testing.AllocsPerRun(50, func() { m.Parallel(threads, noop) })
	}
	narrow, wide := region(2), region(96)
	if wide > 8 {
		t.Errorf("a warmed 96-thread region allocates %.0f times, want a small constant", wide)
	}
	if wide > narrow+2 {
		t.Errorf("allocations grow with the thread count: %.0f at 2 threads, %.0f at 96", narrow, wide)
	}
}

// TestNestedParallelPanics checks the overlap guard: a region started from
// inside another region on the same machine panics naming the misuse, and
// the machine still runs regions afterwards.
func TestNestedParallelPanics(t *testing.T) {
	m := NewMachine(Scaled(OptaneMachine(), 64))
	var msg any
	m.Parallel(1, func(*Thread) {
		defer func() { msg = recover() }()
		m.Parallel(4, func(*Thread) {})
	})
	if s, ok := msg.(string); !ok || !strings.Contains(s, "must not overlap or nest") {
		t.Fatalf("nested Parallel recovered %v, want the overlap guard's panic", msg)
	}
	if st := m.Parallel(4, func(th *Thread) { th.Op(1) }); st.Threads != 4 || st.ElapsedNs <= 0 {
		t.Fatalf("region after the guarded misuse = %+v", st)
	}
}

// BenchmarkRegion times the host cost of one region on a warmed machine: a
// 96-thread region that does nothing, and one in which every thread charges
// one 4096-element ReadRange.
func BenchmarkRegion(b *testing.B) {
	m := NewMachine(Scaled(OptaneMachine(), 32))
	a := m.MustAlloc("bench", 1<<20, 4, AllocOpts{Policy: Interleaved})
	for _, bc := range []struct {
		name string
		body func(t *Thread)
	}{
		{"noop96", func(*Thread) {}},
		{"readrange96", func(t *Thread) {
			lo := int64(t.ID) * 4096
			a.ReadRange(t, lo, lo+4096)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m.Parallel(96, bc.body)
			b.ReportAllocs()
			for b.Loop() {
				m.Parallel(96, bc.body)
			}
		})
	}
}
