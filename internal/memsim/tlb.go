package memsim

// tlb models one hardware thread's data TLB. Each page-size class is a
// fully associative LRU array, implemented as a ring of (pageID, stamp)
// pairs. Entry counts are tiny (4-64), so linear scans beat any fancier
// structure and allocate nothing. The class slices are allocated once, with
// the thread; reset invalidates them in place at the start of each region,
// and only as far as the last region filled them (tlbClass.scan).
type tlb struct {
	small tlbClass
	huge  tlbClass
	giant tlbClass
}

// tlbClass is one page-size class: a fully associative LRU array of slots,
// each a page ID (^0 when invalid) and the class clock at its last use (0
// when invalid).
//
// Slots fill in index order after a reset: a miss takes the least recently
// stamped slot, the lowest on ties, and an invalid slot's stamp 0 is below
// every live one. So every slot above the highest one installed since the
// last reset is invalid with stamp 0, and lookup scans only up to the first
// of them: no slot past it could be the hit or the victim. reset
// invalidates only the slots lookup scanned. Both give exactly what
// scanning and invalidating every slot gives.
type tlbClass struct {
	slots []tlbSlot
	clock uint64
	// scan is the number of slots lookup scans: the high-water mark of
	// the slots installed since the last reset, plus the invalid slot
	// above it when the class has one.
	scan int
}

type tlbSlot struct {
	page, stamp uint64
}

func newTLB(cfg TLBConfig) tlb {
	return tlb{
		small: newTLBClass(cfg.SmallEntries),
		huge:  newTLBClass(cfg.HugeEntries),
		giant: newTLBClass(cfg.GiantEntries),
	}
}

// newTLBClass returns an invalid class of entries slots. Its slots start
// invalid, as a reset leaves them: a zero page ID is a real page, which
// holds would otherwise find in every slot.
func newTLBClass(entries int) tlbClass {
	c := tlbClass{slots: make([]tlbSlot, max(entries, 1))}
	for i := range c.slots {
		c.slots[i].page = ^uint64(0)
	}
	return c
}

// reset invalidates every entry of every class.
func (t *tlb) reset() {
	t.small.reset()
	t.huge.reset()
	t.giant.reset()
}

// reset invalidates the class: the slots past scan already are invalid.
func (c *tlbClass) reset() {
	for i := range c.scan {
		c.slots[i] = tlbSlot{page: ^uint64(0)}
	}
	c.clock, c.scan = 0, 0
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
// slot that holds pageID afterwards and whether the probe hit. The victim is
// the least recently stamped of the slots scanned, the lowest on ties; the
// scan then covers one slot past it, if the class has one.
func (c *tlbClass) lookup(pageID uint64) (int, bool) {
	c.clock++
	victim, oldest := 0, ^uint64(0)
	for i, s := range c.slots[:c.scan] {
		if s.page == pageID {
			c.slots[i].stamp = c.clock
			return i, true
		}
		if s.stamp < oldest {
			oldest, victim = s.stamp, i
		}
	}
	c.scan = min(max(c.scan, victim+2), len(c.slots))
	c.slots[victim] = tlbSlot{pageID, c.clock}
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
	if i >= len(c.slots) || c.slots[i].page != pageID {
		return false
	}
	c.clock++
	c.slots[i].stamp = c.clock
	return true
}

// flushRandom invalidates the slot selected by r, used to model the
// shootdowns triggered by other threads' migrations without sharing state.
func (c *tlbClass) flushRandom(r uint64) {
	c.slots[r%uint64(len(c.slots))] = tlbSlot{page: ^uint64(0)}
}
