package memsim

// tlb models one hardware thread's data TLB. Each page-size class is a
// fully associative LRU array, implemented as a ring of (pageID, stamp)
// pairs. Entry counts are tiny (4-64), so linear scans beat any fancier
// structure and allocate nothing. The class slices are allocated once, with
// the thread; reset invalidates them in place at the start of each region.
type tlb struct {
	small tlbClass
	huge  tlbClass
	giant tlbClass
}

type tlbClass struct {
	pages  []uint64
	stamps []uint64
	clock  uint64
}

func newTLB(cfg TLBConfig) tlb {
	return tlb{
		small: newTLBClass(cfg.SmallEntries),
		huge:  newTLBClass(cfg.HugeEntries),
		giant: newTLBClass(cfg.GiantEntries),
	}
}

func newTLBClass(entries int) tlbClass {
	if entries <= 0 {
		entries = 1
	}
	return tlbClass{
		pages:  make([]uint64, entries),
		stamps: make([]uint64, entries),
	}
}

// reset invalidates every entry of every class.
func (t *tlb) reset() {
	t.small.reset()
	t.huge.reset()
	t.giant.reset()
}

func (c *tlbClass) reset() {
	for i := range c.pages {
		c.pages[i] = ^uint64(0) // invalid
	}
	clear(c.stamps)
	c.clock = 0
}

func (t *tlb) class(pageSize int64) *tlbClass {
	switch pageSize {
	case PageHuge:
		return &t.huge
	case PageGiant:
		return &t.giant
	default:
		return &t.small
	}
}

// lookup probes the TLB for pageID, installing it on a miss. It returns the
// slot that holds pageID afterwards and whether the probe hit.
func (c *tlbClass) lookup(pageID uint64) (int, bool) {
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

// holds is lookup's hit path tried at one slot first: when slot i holds
// pageID it refreshes the slot's stamp exactly as lookup's hit would and
// reports true; otherwise it changes nothing. A valid page ID occupies at
// most one slot (lookup installs only IDs its scan did not find; reset and
// flushRandom only invalidate), so a hit here is the slot lookup's scan
// would have found, and the LRU state stays the scan's. i may be any
// non-negative hint, including one taken from another class.
func (c *tlbClass) holds(i int, pageID uint64) bool {
	if i >= len(c.pages) || c.pages[i] != pageID {
		return false
	}
	c.clock++
	c.stamps[i] = c.clock
	return true
}

// flushRandom invalidates the slot selected by r, used to model the
// shootdowns triggered by other threads' migrations without sharing state.
func (c *tlbClass) flushRandom(r uint64) {
	i := int(r % uint64(len(c.pages)))
	c.pages[i] = ^uint64(0)
	c.stamps[i] = 0
}
