package memsim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestTLBSlotHintIsExact drives seeded lookup sequences through two copies
// of each TLB class geometry (64, 32 and 4 entries): one probes each
// stream's hinted slot before the LRU scan, the way access does, the other
// only scans. Several streams (arrays) share a class, each with its own
// hint, and flushRandom and reset are interleaved. Every probe must hit or
// miss alike, and the classes must end with identical pages and stamps.
func TestTLBSlotHintIsExact(t *testing.T) {
	for _, entries := range []int{64, 32, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(entries)))
			hinted, plain := newTLBClass(entries), newTLBClass(entries)
			hinted.reset()
			plain.reset()
			hints := make([]int32, 3)
			for step := range 20000 {
				switch r := rng.Intn(1000); {
				case r < 3:
					hinted.reset()
					plain.reset()
					continue
				case r < 20:
					x := rng.Uint64()
					hinted.flushRandom(x)
					plain.flushRandom(x)
					continue
				}
				// Each stream draws from its own page universe, a little
				// larger than the class, with a bias toward its last page.
				s := rng.Intn(len(hints))
				pid := uint64(s)<<40 | uint64(rng.Intn(entries+entries/2+2))
				if rng.Intn(3) == 0 {
					pid = uint64(s) << 40
				}
				hint := &hints[s]
				hit := hinted.holds(int(*hint), pid)
				if !hit {
					var k int
					k, hit = hinted.lookup(pid)
					*hint = int32(k)
				}
				_, want := plain.lookup(pid)
				if hit != want {
					t.Fatalf("%d entries, seed %d, step %d: hinted probe of %#x hit=%v, scan hit=%v", entries, seed, step, pid, hit, want)
				}
			}
			if !slices.Equal(hinted.pages, plain.pages) || !slices.Equal(hinted.stamps, plain.stamps) || hinted.clock != plain.clock {
				t.Fatalf("%d entries, seed %d: hinted class ended as %v / %v, scan as %v / %v", entries, seed, hinted.pages, hinted.stamps, plain.pages, plain.stamps)
			}
		}
	}
}

// TestPageIndexShiftsMatchDivision: pageOf and pageID compute by shift what
// the charge path once computed by division, for every page size and for
// translations through the array's own pages and through 4 KB pages (a THP
// residue).
func TestPageIndexShiftsMatchDivision(t *testing.T) {
	m := NewMachine(DRAMMachine())
	rng := rand.New(rand.NewSource(7))
	for _, ps := range []int64{PageSmall, PageHuge, PageGiant} {
		for _, elem := range []int64{1, 4, 8, 12} {
			// A first array moves the second's base address off zero.
			m.MustAlloc(fmt.Sprintf("pad-%d-%d", ps, elem), 1<<10, elem, AllocOpts{PageSize: ps})
			a := m.MustAlloc(fmt.Sprintf("a-%d-%d", ps, elem), 3<<20, elem, AllocOpts{PageSize: ps})
			if a.baseAddr == 0 {
				t.Fatal("second allocation sits at address 0")
			}
			for range 2000 {
				i := rng.Int63n(a.Len())
				p := a.pageOf(i)
				if want := i * a.elemSize / a.pageSize; p != want {
					t.Fatalf("page %d elem %d: pageOf(%d) = %d, want %d", ps, elem, i, p, want)
				}
				for _, eff := range []int64{a.pageSize, PageSmall} {
					shift := uint(0)
					for int64(1)<<shift != eff {
						shift++
					}
					want := (a.baseAddr + uint64(p)*uint64(a.pageSize)) / uint64(eff)
					if got := a.pageID(p, shift); got != want {
						t.Fatalf("page %d elem %d: pageID(%d, %d) = %d, want %d", ps, elem, p, shift, got, want)
					}
				}
			}
		}
	}
}

// TestAllocPanicsInsideRegion and TestFreePanicsInsideRegion: a region
// resolves its charge tables from the footprint it starts with, so Alloc
// and Free refuse to change the footprint while it runs, naming the array.
func TestAllocPanicsInsideRegion(t *testing.T) {
	m := NewMachine(OptaneMachine())
	msg := regionPanic(m, func() { m.MustAlloc("mid-region", 64, 8, AllocOpts{}) })
	if !strings.Contains(msg, "Alloc") || !strings.Contains(msg, `"mid-region"`) {
		t.Fatalf("Alloc inside a region: panic %q, want one naming Alloc and the array", msg)
	}
	if _, err := m.Alloc("after-region", 64, 8, AllocOpts{}); err != nil {
		t.Fatalf("Alloc after the region: %v", err)
	}
}

func TestFreePanicsInsideRegion(t *testing.T) {
	m := NewMachine(OptaneMachine())
	a := m.MustAlloc("live", 64, 8, AllocOpts{})
	msg := regionPanic(m, func() { m.Free(a) })
	if !strings.Contains(msg, "Free") || !strings.Contains(msg, `"live"`) {
		t.Fatalf("Free inside a region: panic %q, want one naming Free and the array", msg)
	}
	m.Free(a)
	if m.FootprintOnSocket(0) != 0 {
		t.Fatal("Free after the region left a footprint")
	}
}

// regionPanic runs fn on the one thread of a region on m and returns what it
// panicked with ("" if it did not).
func regionPanic(m *Machine, fn func()) (msg string) {
	m.Sequential(func(*Thread) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		fn()
	})
	return msg
}
