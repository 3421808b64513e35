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
			if !slices.Equal(hinted.slots, plain.slots) || hinted.clock != plain.clock {
				t.Fatalf("%d entries, seed %d: hinted class ended as %v, scan as %v", entries, seed, hinted.slots, plain.slots)
			}
		}
	}
}

// eagerClass is a TLB class that invalidates every slot on reset and
// scans every slot on lookup: the reference tlbClass's high-water mark must
// agree with.
type eagerClass struct {
	pages, stamps []uint64
	clock         uint64
}

func newEagerClass(entries int) *eagerClass {
	c := &eagerClass{pages: make([]uint64, entries), stamps: make([]uint64, entries)}
	c.reset()
	return c
}

func (c *eagerClass) reset() {
	for i := range c.pages {
		c.pages[i] = ^uint64(0)
	}
	clear(c.stamps)
	c.clock = 0
}

func (c *eagerClass) lookup(pageID uint64) (int, bool) {
	c.clock++
	victim, oldest := 0, ^uint64(0)
	for i, p := range c.pages {
		if p == pageID {
			c.stamps[i] = c.clock
			return i, true
		}
		if c.stamps[i] < oldest {
			oldest = c.stamps[i]
			victim = i
		}
	}
	c.pages[victim] = pageID
	c.stamps[victim] = c.clock
	return victim, false
}

func (c *eagerClass) holds(i int, pageID uint64) bool {
	if i >= len(c.pages) || c.pages[i] != pageID {
		return false
	}
	c.clock++
	c.stamps[i] = c.clock
	return true
}

func (c *eagerClass) flushRandom(r uint64) {
	i := int(r % uint64(len(c.pages)))
	c.pages[i] = ^uint64(0)
	c.stamps[i] = 0
}

// sameState reports whether c holds exactly e's pages, stamps and clock.
func (c *tlbClass) sameState(e *eagerClass) bool {
	for i, s := range c.slots {
		if s.page != e.pages[i] || s.stamp != e.stamps[i] {
			return false
		}
	}
	return len(c.slots) == len(e.pages) && c.clock == e.clock
}

// TestTLBHighWaterMarkIsExact drives seeded lookup, holds, flushRandom and
// reset sequences through a tlbClass, which resets and scans only up to its
// high-water mark, and through an eagerClass, on 64-, 32- and 4-entry
// classes. Every lookup must hit or miss alike in the same slot, every holds
// must agree, and the classes must hold the same pages, stamps and clock
// after every reset and at the end. Each sequence starts on a class as
// newTLBClass builds it, probed at page 0 through hint slot 0: a class whose
// slots started as zero page IDs would hit there.
func TestTLBHighWaterMarkIsExact(t *testing.T) {
	for _, entries := range []int{64, 32, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(entries)))
			lazy, eager := newTLBClass(entries), newEagerClass(entries)
			if got, want := lazy.holds(0, 0), eager.holds(0, 0); got || want {
				t.Fatalf("%d entries: a new class holds page 0 in slot 0 (lazy %v, eager %v)", entries, got, want)
			}
			for step := range 20000 {
				switch r := rng.Intn(1000); {
				case r < 5:
					lazy.reset()
					eager.reset()
					if !lazy.sameState(eager) {
						t.Fatalf("%d entries, seed %d, step %d: after reset %v, eager %v / %v", entries, seed, step, lazy.slots, eager.pages, eager.stamps)
					}
					continue
				case r < 25:
					x := rng.Uint64()
					lazy.flushRandom(x)
					eager.flushRandom(x)
					continue
				case r < 300:
					i, pid := rng.Intn(entries+1), uint64(rng.Intn(entries+entries/2+2))
					if got, want := lazy.holds(i, pid), eager.holds(i, pid); got != want {
						t.Fatalf("%d entries, seed %d, step %d: holds(%d, %d) = %v, eager %v", entries, seed, step, i, pid, got, want)
					}
					continue
				}
				// Page IDs from a universe a little larger than the class,
				// page 0 included, so slots both fill and get evicted.
				pid := uint64(rng.Intn(entries + entries/2 + 2))
				k, hit := lazy.lookup(pid)
				wk, whit := eager.lookup(pid)
				if k != wk || hit != whit {
					t.Fatalf("%d entries, seed %d, step %d: lookup(%d) = slot %d hit %v, eager slot %d hit %v", entries, seed, step, pid, k, hit, wk, whit)
				}
			}
			if !lazy.sameState(eager) {
				t.Fatalf("%d entries, seed %d: class ended as %v, eager as %v / %v", entries, seed, lazy.slots, eager.pages, eager.stamps)
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
