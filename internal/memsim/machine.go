package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Machine is a simulated NUMA machine. It owns the global simulated wall
// clock, the allocation map, the per-socket footprint accounting that
// drives the near-memory cache model, and the pool of virtual threads its
// regions run on.
//
// Machine is safe for use by the goroutines of a single Parallel region;
// distinct Parallel regions must not overlap or nest, and parallel panics
// if they do.
type Machine struct {
	cfg  MachineConfig
	cost *CostParams

	// The mode's kernel costs, selected once: page walk per TLB miss,
	// minor fault per first touch, and bookkeeping per page migration
	// (page tables and kernel data live in Optane in memory mode).
	walkNs, faultNs, bookNs float64
	// tiers are the cost tables of the three memory devices; Alloc points
	// each Array at the one serving it.
	tiers [numTiers]tier

	wallNs   float64
	counters Counters

	// volatileBytes is the number of bytes placed on each socket in the
	// volatile pool (Optane media in memory mode, DRAM otherwise).
	// adBytes tracks app-direct placements.
	volatileBytes []int64
	adBytes       []int64
	// sockMask is Sockets-1 when the socket count is a power of two (an
	// interleaved page's socket is then p&sockMask, which equals p%Sockets
	// for the non-negative page indices), else -1.
	sockMask int64
	// hitProb[s] and resident[s] are nearMemHitProb(s) and residentFrac(s)
	// of the current footprint, recomputed whenever place or Free changes
	// it (footprintChanged) rather than on every charged access.
	hitProb, resident []float64

	nextAddr uint64
	allocs   map[string]*Array

	// arrays holds the live allocations by Array.id; freeIDs are the ids
	// Free returned, which Alloc reuses, so a thread's cells are
	// bounded by the live arrays rather than by every allocation made.
	arrays  []*Array
	freeIDs []int

	// threads is the virtual-thread pool, grown to the widest region run
	// so far; each region resets the threads it uses.
	threads []*Thread
	// running is set while a region runs: pooled threads make an
	// overlapping or nested region silently share them.
	running atomic.Bool

	// regionThreads is the thread count of the running Parallel region,
	// or of the last one.
	regionThreads int
	// resolved reports that the arrays' charge tables are resolve's for
	// the current footprint and regionThreads: a region recomputes them
	// only when Alloc or Free changed the footprint since, or when its
	// thread count differs.
	resolved bool
}

// thpSmallFraction is the fraction of translations on THP-backed
// allocations that still resolve through 4 KB pages.
const thpSmallFraction = 0.30

// walkOverlap is the exposed fraction of page-walk latency when many
// independent accesses are in flight: walks overlap the data fetches.
const walkOverlap = 0.12

// NewMachine builds a Machine from cfg. It panics on invalid configuration
// (a programming error, not a runtime condition).
func NewMachine(cfg MachineConfig) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := cfg.Cost
	m := &Machine{
		cfg:           cfg,
		cost:          &c,
		walkNs:        c.PageWalkDRAM,
		faultNs:       c.MinorFaultDRAM,
		bookNs:        c.MigrationBookkeepDRAM,
		tiers:         newTiers(&c),
		volatileBytes: make([]int64, cfg.Sockets),
		adBytes:       make([]int64, cfg.Sockets),
		hitProb:       make([]float64, cfg.Sockets),
		resident:      make([]float64, cfg.Sockets),
		allocs:        make(map[string]*Array),
		sockMask:      -1,
	}
	if cfg.Sockets&(cfg.Sockets-1) == 0 {
		m.sockMask = int64(cfg.Sockets - 1)
	}
	m.footprintChanged()
	if cfg.Mode == MemoryMode {
		m.walkNs, m.faultNs, m.bookNs = c.PageWalkOptane, c.MinorFaultOptane, c.MigrationBookkeepOptane
	}
	return m
}

// The memory devices an Array can be served by.
const (
	cachedTier = iota // memory mode: DRAM near-memory in front of the Optane media
	mediaTier         // app-direct: the Optane media itself
	dramTier          // DRAM main memory
	numTiers
)

// tier is the cost table of one memory device. Bandwidths are indexed
// [write][remote] (see bit), latencies [remote]: a load costs the same
// either way.
type tier struct {
	lat           [2]float64    // load-to-use latency; cached tier: near-memory hit
	seqBW, randBW [2][2]float64 // streaming and random-line bandwidth
	// cached marks the memory-mode tier, whose accesses hit near-memory
	// with a footprint-dependent probability. A miss costs missLat
	// [remote]; streams beyond near-memory spill at spillBW [write], and
	// random lines beyond it run at the media's local mediaRandBW [write].
	cached               bool
	missLat              [2]float64
	spillBW, mediaRandBW [2]float64
}

// newTiers resolves c into the three tier tables. Every entry is one of c's
// constants, except that the UPI links cap DRAM's remote bandwidths.
func newTiers(c *CostParams) [numTiers]tier {
	media := tier{
		lat:    [2]float64{c.AppDirectLatencyLocal, c.AppDirectLatencyRemote},
		seqBW:  [2][2]float64{{c.ADSeqReadLocal, c.ADSeqReadRemote}, {c.ADSeqWriteLocal, c.ADSeqWriteRemote}},
		randBW: [2][2]float64{{c.ADRandReadLocal, c.ADRandReadRemote}, {c.ADRandWriteLocal, c.ADRandWriteRemote}},
	}
	capped := func(bw float64) [2]float64 { return [2]float64{bw, math.Min(bw, c.DRAMRemoteCap)} }
	return [numTiers]tier{
		cachedTier: {
			lat:         [2]float64{c.NearMemHitLocal, c.NearMemHitRemote},
			seqBW:       [2][2]float64{{c.MMSeqReadLocal, c.MMSeqReadRemote}, {c.MMSeqWriteLocal, c.MMSeqWriteRemote}},
			randBW:      [2][2]float64{{c.MMRandReadLocal, c.MMRandReadRemote}, {c.MMRandWriteLocal, c.MMRandWriteRemote}},
			cached:      true,
			missLat:     [2]float64{c.NearMemMissLocal, c.NearMemMissRemote},
			spillBW:     [2]float64{c.MediaSpillReadBW, c.MediaSpillWriteBW},
			mediaRandBW: [2]float64{media.randBW[0][0], media.randBW[1][0]},
		},
		mediaTier: media,
		dramTier: {
			lat:    [2]float64{c.DRAMLatencyLocal, c.DRAMLatencyRemote},
			seqBW:  [2][2]float64{capped(c.DRAMSeqRead), capped(c.DRAMSeqWrite)},
			randBW: [2][2]float64{capped(c.DRAMRandRead), capped(c.DRAMRandWrite)},
		},
	}
}

// bit indexes a tier table: 1 for a write, or for a remote access.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Config returns the machine configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// WallNs returns accumulated simulated wall-clock nanoseconds.
func (m *Machine) WallNs() float64 { return m.wallNs }

// WallSeconds returns accumulated simulated wall-clock seconds.
func (m *Machine) WallSeconds() float64 { return m.wallNs / 1e9 }

// Counters returns the accumulated machine-wide counters.
func (m *Machine) Counters() Counters { return m.counters }

// ResetClock zeroes the wall clock and counters, keeping allocations.
func (m *Machine) ResetClock() {
	m.wallNs = 0
	m.counters = Counters{}
}

// AdvanceWall charges sequential (single-threaded, un-instrumented) time
// directly to the wall clock, e.g. for costed phases computed analytically.
func (m *Machine) AdvanceWall(ns float64) {
	m.wallNs += ns
	m.counters.UserNs += ns
}

// Alloc creates a simulated allocation of n elements of elemSize bytes. It
// panics while a region runs: the region resolved its charge tables from
// the footprint it started with (see resolve).
func (m *Machine) Alloc(name string, n int64, elemSize int64, opts AllocOpts) (*Array, error) {
	m.checkIdle("Alloc", name)
	if n < 0 || elemSize <= 0 {
		return nil, fmt.Errorf("memsim: alloc %q: invalid shape n=%d elem=%d", name, n, elemSize)
	}
	pageSize := opts.PageSize
	if pageSize == 0 {
		pageSize = m.cfg.PageSize
	}
	switch pageSize {
	case PageSmall, PageHuge, PageGiant:
	default:
		return nil, fmt.Errorf("memsim: alloc %q: unsupported page size %d", name, pageSize)
	}
	if _, dup := m.allocs[name]; dup {
		// Uniquify: kernels routinely allocate short-lived arrays with
		// the same logical name across runs on one machine.
		for i := 2; ; i++ {
			candidate := fmt.Sprintf("%s#%d", name, i)
			if _, ok := m.allocs[candidate]; !ok {
				name = candidate
				break
			}
		}
	}
	bytes := n * elemSize
	numPages := (bytes + pageSize - 1) / pageSize
	if numPages == 0 {
		numPages = 1
	}
	a := &Array{
		m:         m,
		name:      name,
		elemSize:  elemSize,
		length:    n,
		bytes:     bytes,
		pageSize:  pageSize,
		pageShift: uint(bits.TrailingZeros64(uint64(pageSize))),
		numPages:  numPages,
		baseAddr:  m.nextAddr,
		opts:      opts,
		touched:   make([]atomic.Uint64, (numPages+63)/64),
	}
	tables := make([]float64, 6*m.cfg.Sockets)
	a.streamDen, a.randLat = tables[:4*m.cfg.Sockets], tables[4*m.cfg.Sockets:]
	// Advance the virtual address cursor, giant-page aligned so arrays
	// never share a translation page of any size class.
	m.nextAddr += (uint64(bytes)/PageGiant + 1) * PageGiant

	if err := m.place(a); err != nil {
		return nil, err
	}
	m.footprintChanged()
	a.frac = make([]float64, m.cfg.Sockets)
	for s := range a.frac {
		a.frac[s] = a.placedFrac(s)
	}

	switch {
	case m.cfg.Mode == MemoryMode:
		a.tier = &m.tiers[cachedTier]
	case opts.AppDirect: // place admits it only in app-direct mode
		a.tier = &m.tiers[mediaTier]
	default:
		a.tier = &m.tiers[dramTier]
	}
	// NUMA migration daemon (§4.2): remote accesses to migratable pages
	// occasionally trigger a migration. Probability scales inversely with
	// page size: small pages migrate ~512x more often.
	a.migProb = 1.0 / 400.0 * float64(PageSmall) / float64(pageSize)
	a.migNs = m.bookNs + m.cost.MigrationCopyPerByte*float64(pageSize)

	l3 := float64(m.cfg.L3PerSocket * int64(m.cfg.Sockets))
	if l3 > 0 {
		// Small arrays (frontier bitmaps, per-round scalars) live in
		// the on-chip caches most of the time.
		a.l3Prob = math.Min(0.95, l3/math.Max(l3, float64(bytes))*0.95)
		if float64(bytes) > 8*l3 {
			a.l3Prob = 0.95 * l3 / float64(bytes)
		}
	}

	m.allocs[a.name] = a
	if n := len(m.freeIDs); n > 0 {
		a.id = m.freeIDs[n-1]
		m.freeIDs = m.freeIDs[:n-1]
		m.arrays[a.id] = a
	} else {
		a.id = len(m.arrays)
		m.arrays = append(m.arrays, a)
	}
	return a, nil
}

// MustAlloc is Alloc that panics on error, for allocation shapes the caller
// has already validated.
func (m *Machine) MustAlloc(name string, n int64, elemSize int64, opts AllocOpts) *Array {
	a, err := m.Alloc(name, n, elemSize, opts)
	if err != nil {
		panic(err)
	}
	return a
}

// place computes page placement and reserves its footprint, recording each
// socket's share on a for Free.
func (m *Machine) place(a *Array) error {
	if a.opts.AppDirect && m.cfg.Mode != AppDirect {
		return fmt.Errorf("memsim: alloc %q: app-direct placement requires app-direct mode", a.name)
	}
	sockets := m.cfg.Sockets
	pool := m.pool(a)
	a.placed = make([]int64, sockets)
	reserve := func(s int, bytes int64) {
		pool[s] += bytes
		a.placed[s] += bytes
	}
	switch a.opts.Policy {
	case Interleaved:
		per := a.bytes / int64(sockets)
		for s := 0; s < sockets; s++ {
			reserve(s, per)
		}
	case Blocked:
		threads := a.opts.BlockThreads
		if threads <= 0 {
			threads = m.cfg.MaxThreads()
		}
		perThread := a.bytes / int64(threads)
		for t := 0; t < threads; t++ {
			reserve(threadSocket(&m.cfg, t), perThread)
		}
	default: // Local with spill
		// Optane backs the volatile pool in memory mode and the
		// app-direct pool; DRAM backs the volatile pool otherwise.
		cap := m.cfg.DRAMPerSocket
		if m.cfg.Mode == MemoryMode || a.opts.AppDirect {
			cap = m.cfg.PMMPerSocket
		}
		remaining := a.bytes
		s := a.opts.PreferredSocket % sockets
		page := int64(0)
		for remaining > 0 {
			free := cap - pool[s]
			if free <= 0 {
				s = (s + 1) % sockets
				if s == a.opts.PreferredSocket%sockets {
					// Every socket full: overcommit on the
					// preferred socket (the OS would OOM or
					// swap; the simulation charges the
					// conflict-miss cost instead).
					reserve(s, remaining)
					break
				}
				continue
			}
			take := remaining
			if take > free {
				take = free
			}
			a.segments = append(a.segments, placeSegment{startPage: page, socket: s})
			reserve(s, take)
			page += (take + a.pageSize - 1) / a.pageSize
			remaining -= take
			s = (s + 1) % sockets
		}
		if len(a.segments) == 0 {
			a.segments = append(a.segments, placeSegment{startPage: 0, socket: a.opts.PreferredSocket % sockets})
		}
	}
	return nil
}

// Free releases an allocation's footprint. Like Alloc, it panics while a
// region runs.
func (m *Machine) Free(a *Array) {
	if a == nil || a.freed {
		return
	}
	m.checkIdle("Free", a.name)
	a.freed = true
	delete(m.allocs, a.name)
	m.arrays[a.id] = nil
	m.freeIDs = append(m.freeIDs, a.id)
	pool := m.pool(a)
	for s, bytes := range a.placed {
		pool[s] -= bytes
	}
	m.footprintChanged()
}

// checkIdle panics, naming op and the array, when a region is running.
func (m *Machine) checkIdle(op, name string) {
	if m.running.Load() {
		panic(fmt.Sprintf("memsim: %s of %q while a region runs: the footprint must stay fixed within a region", op, name))
	}
}

// footprintChanged recomputes the per-socket near-memory probabilities from
// the current footprint.
func (m *Machine) footprintChanged() {
	m.resolved = false
	for s := range m.hitProb {
		m.hitProb[s] = m.nearMemHitProb(s)
		m.resident[s] = m.residentFrac(s)
	}
}

// pool returns the per-socket footprint accounts a draws on: the app-direct
// media, or the volatile pool.
func (m *Machine) pool(a *Array) []int64 {
	if a.opts.AppDirect {
		return m.adBytes
	}
	return m.volatileBytes
}

// FootprintOnSocket returns the volatile bytes placed on socket s.
func (m *Machine) FootprintOnSocket(s int) int64 { return m.volatileBytes[s] }

// nearMemHitProb models the direct-mapped near-memory cache: the probability
// that a random access to data on socket s hits in that socket's DRAM.
// Calibration targets from the paper: a footprint of ~1/3 of near-memory
// behaves like DRAM; ~95% of near-memory sees ~26% conflict misses
// (clueweb12); beyond capacity the hit rate decays as C/F with a
// direct-mapped conflict penalty.
func (m *Machine) nearMemHitProb(s int) float64 {
	c := float64(m.cfg.DRAMPerSocket)
	f := float64(m.volatileBytes[s])
	if f <= 0 {
		return 1
	}
	if f <= c {
		x := f / c
		return 1 - 0.35*x*x*x*x
	}
	return 0.65 * c / f
}

// residentFrac is the streaming (single-sweep) variant: the fraction of a
// socket's footprint that can stay resident in near-memory.
func (m *Machine) residentFrac(s int) float64 {
	c := float64(m.cfg.DRAMPerSocket)
	f := float64(m.volatileBytes[s])
	if f <= c || f <= 0 {
		return 1
	}
	return c / f
}

// RegionStats summarizes one Parallel region. The json tags define the
// stable wire format of serialized kernel traces (analytics.MarshalResult).
type RegionStats struct {
	ElapsedNs float64  `json:"elapsed_ns"`
	Counters  Counters `json:"counters"`
	Threads   int      `json:"threads"`
}

// Parallel runs fn on threads virtual threads and advances the wall clock by
// the slowest thread's simulated time plus fork/join overhead. fn receives
// each thread's Thread handle and must partition work by t.ID. The virtual
// threads come from the machine's pool and run on at most GOMAXPROCS
// goroutines, in no particular order.
func (m *Machine) Parallel(threads int, fn func(t *Thread)) RegionStats {
	return m.parallel(threads, -1, fn)
}

// ParallelPinned is Parallel with every virtual thread pinned to one socket
// (numactl --cpunodebind), used by the latency/bandwidth microbenchmarks to
// force all-local or all-remote access patterns.
func (m *Machine) ParallelPinned(socket, threads int, fn func(t *Thread)) RegionStats {
	return m.parallel(threads, socket%m.cfg.Sockets, fn)
}

func (m *Machine) parallel(threads, pinSocket int, fn func(t *Thread)) RegionStats {
	if !m.running.CompareAndSwap(false, true) {
		panic("memsim: Parallel on a Machine whose region is still running: regions on one Machine must not overlap or nest")
	}
	threads = threadCount(m, threads)
	if !m.resolved || threads != m.regionThreads {
		m.regionThreads = threads
		m.resolve()
		m.resolved = true
	}
	cores := m.cfg.Sockets * m.cfg.CoresPerSocket
	if pinSocket >= 0 {
		cores = m.cfg.CoresPerSocket
	}
	smtScale := 1.0
	if threads > cores {
		// SMT siblings share a core; each runs at ~74% of the core's
		// solo throughput, so two siblings deliver ~1.35x one core.
		smtScale = 1.48
	}
	for len(m.threads) < threads {
		m.threads = append(m.threads, newThread(m, len(m.threads)))
	}
	ts := m.threads[:threads]

	// Execute the virtual threads on at most GOMAXPROCS goroutines, which
	// take thread indices from a shared counter. Each Thread accumulates
	// its charges, counters, traffic and simulated time into private
	// state; shared machine state (page-table touch bits, shootdown
	// totals, per-array traffic) is only read during the region and
	// updated from recorded intents at the barrier below, so the merged
	// result is byte-identical for every goroutine interleaving and
	// GOMAXPROCS setting. A worker resets each thread it takes before
	// running it, so the resets run in parallel too.
	workers := min(threads, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= threads {
				return
			}
			t := ts[i]
			s := pinSocket
			if s < 0 {
				s = t.home
			}
			t.reset(s, smtScale)
			fn(t)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()

	// Barrier merge, in thread-index order.
	//
	// Phase 1: total the TLB-shootdown batches generated by migrations.
	var shoot float64
	for _, t := range ts {
		shoot += float64(t.shootdowns)
	}
	// Phase 2: apply first-touch intents to the arrays' (frozen) touched
	// bitmaps and fold traffic cells into the arrays' totals, leaving
	// every thread's overlay and cells empty. OR-ing bits and adding
	// integers commute, so the merged state is deterministic regardless of
	// map iteration order.
	for _, t := range ts {
		for a, ov := range t.touches {
			for w, bits := range ov {
				if bits != 0 {
					a.touched[w].Or(bits)
				}
			}
		}
		clear(t.touches)
		for id := range t.cells {
			if c := &t.cells[id].traffic; *c != [2]uint64{} {
				a := m.arrays[id]
				a.readBytes += c[0]
				a.writeBytes += c[1]
				*c = [2]uint64{}
			}
		}
	}
	// Phase 3: charge shootdown IPIs (every running thread services every
	// batch) and fold per-thread clocks and counters into the region stats.
	var stats RegionStats
	stats.Threads = threads
	for _, t := range ts {
		if shoot > 0 {
			ipi := shoot * m.cost.ShootdownPerThread
			t.Clock += ipi
			t.C.KernelNs += ipi
			t.C.Shootdowns += uint64(shoot)
		}
		if t.Clock > stats.ElapsedNs {
			stats.ElapsedNs = t.Clock
		}
		stats.Counters.Add(t.C)
	}
	stats.ElapsedNs += m.cost.ForkJoinCost
	m.wallNs += stats.ElapsedNs
	m.counters.Add(stats.Counters)
	m.running.Store(false)
	return stats
}

// threadCount clamps a requested thread count to [1, MaxThreads]: the
// thread set a region runs, which callers partitioning work by Thread.ID
// must split over.
func threadCount(m *Machine, threads int) int {
	if threads <= 0 {
		return 1
	}
	if max := m.cfg.MaxThreads(); threads > max {
		return max
	}
	return threads
}

// Sequential runs fn on a single virtual thread pinned to socket 0.
func (m *Machine) Sequential(fn func(t *Thread)) RegionStats {
	return m.Parallel(1, fn)
}

// countAccess records n accesses moving bytes against t's traffic cell for a
// and t's counters.
func countAccess(t *Thread, a *Array, n, bytes int64, isWrite bool) {
	if a.id >= len(t.cells) {
		t.growCells(a.id)
	}
	t.cells[a.id].traffic[bit(isWrite)] += uint64(bytes)
	if isWrite {
		t.C.Writes += uint64(n)
		t.C.BytesWritten += uint64(bytes)
	} else {
		t.C.Reads += uint64(n)
		t.C.BytesRead += uint64(bytes)
	}
}

// access is the core cost function: thread t touches n consecutive elements
// of a starting at index i. seq marks streaming accesses charged against
// bandwidth rather than latency.
func (m *Machine) access(t *Thread, a *Array, i, n int64, isWrite, seq bool) {
	bytes := n * a.elemSize
	countAccess(t, a, 1, bytes, isWrite)

	// Same-line memo: back-to-back touches of one 64 B line are L1 hits.
	line := (i * a.elemSize) >> 6
	if !seq && a == t.lastArray && line == t.lastLine {
		t.Advance(1.0)
		return
	}
	t.lastArray = a
	t.lastLine = ((i + n - 1) * a.elemSize) >> 6

	firstPage := a.pageOf(i)
	lastPage := a.pageOf(i + n - 1)
	socket := a.socketOf(firstPage)

	// Address translation and fault service, per page touched. The slot
	// that last held a page of a is probed before the LRU scan.
	pageSize := a.effectivePageSize(t)
	cls := t.tlb.class(pageSize)
	shift := uint(bits.TrailingZeros64(uint64(pageSize)))
	slot := &t.cells[a.id].slot
	for p := firstPage; p <= lastPage; p++ {
		pid := a.pageID(p, shift)
		hit := cls.holds(int(*slot), pid)
		if !hit {
			var k int
			k, hit = cls.lookup(pid)
			*slot = int32(k)
		}
		if hit {
			t.C.TLBHits++
		} else {
			t.C.TLBMisses++
			t.C.PageWalkNs += m.walkNs
			t.Advance(m.walkNs)
		}
		if a.firstTouch(t, p) {
			t.C.MinorFaults++
			t.AdvanceKernel(m.faultNs)
		}
	}

	local := socket == t.Socket
	if local {
		t.C.LocalAccesses++
	} else {
		t.C.RemoteAccesses++
	}

	// NUMA migration daemon (§4.2): a remote access may migrate its page.
	if m.cfg.NUMAMigration && !local && t.chance(a.migProb) {
		t.C.Migrations++
		t.AdvanceKernel(a.migNs)
		t.shootdowns++
		// The migrating thread's own stale entry is dropped.
		cls.flushRandom(t.next())
	}

	// On-chip cache short-circuit.
	if a.l3Prob > 0 && t.chance(a.l3Prob) {
		t.Advance(m.cost.L3HitLatency + float64(bytes)/512)
		return
	}

	// Memory device cost. Latency-bound accesses pay the SMT sibling
	// penalty (shared miss-handling resources); bandwidth-bound streams
	// do not (the memory system, not the core, is the bottleneck).
	var ns float64
	if seq {
		if a.opts.Policy == Interleaved && lastPage > firstPage {
			// A long scan of an interleaved array alternates
			// sockets page by page: charge each socket its share.
			per := bytes / int64(m.cfg.Sockets)
			for s := 0; s < m.cfg.Sockets; s++ {
				ns += m.streamCost(a, s, s == t.Socket, isWrite, per)
			}
		} else {
			ns = m.streamCost(a, socket, local, isWrite, bytes)
		}
	} else {
		ns = m.randomCost(t, a, socket, local, isWrite) * t.smtScale
		if n > 1 {
			// Short gather: remaining lines stream behind the
			// leading miss.
			ns += m.streamCost(a, socket, local, isWrite, bytes-64)
		}
	}
	t.Advance(ns)
}

// randomCost returns the latency of one random (latency-bound) access.
func (m *Machine) randomCost(t *Thread, a *Array, socket int, local, isWrite bool) float64 {
	r := bit(!local)
	if a.tier.cached {
		if !t.chance(m.hitProb[socket]) {
			t.C.NearMemMisses++
			lat := a.tier.missLat[r]
			if isWrite {
				// Write misses allocate: read-fill plus eventual
				// dirty writeback to the media.
				lat *= 1.3
			}
			return lat
		}
		t.C.NearMemHits++
	}
	return a.tier.lat[r]
}

// share is the number of threads splitting the bandwidth of the socket
// serving a: the region's thread count weighted by the fraction of a placed
// there, and at least one.
func (m *Machine) share(a *Array, socket int) float64 {
	share := float64(m.regionThreads) * a.fracOnSocket(socket)
	if share < 1 {
		share = 1
	}
	return share
}

// streamCost returns the cost of streaming bytes sequentially, charged at
// the per-thread share of the serving socket's bandwidth (streamDen).
func (m *Machine) streamCost(a *Array, socket int, local, isWrite bool, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / a.streamDen[(socket*2+bit(isWrite))*2+bit(!local)]
}

// resolve fills, for the region about to start, each live array's charge
// tables (streamDen, randLat, hitProb). Every entry is a function of the
// footprint, the array's placement and the region's thread count, none of
// which changes while the region runs (Alloc and Free panic then), and is
// computed by the same expression, in the same order, as the per-access
// charge once computed it — so every charge is bit-for-bit what it was.
func (m *Machine) resolve() {
	for _, a := range m.arrays {
		if a == nil {
			continue
		}
		a.hitProb = 0
		if a.tier.cached {
			// Footprint-weighted hit probability across sockets.
			for s, frac := range a.frac {
				if frac > 0 {
					a.hitProb += frac * m.hitProb[s]
				}
			}
		}
		for s := range a.frac {
			share := m.share(a, s)
			for w := range 2 {
				for r := range 2 {
					bw := a.tier.seqBW[w][r]
					if a.tier.cached {
						// Streams beyond near-memory capacity spill to
						// the Optane media at its sustained rate.
						rf := m.resident[s]
						if rf < 1 {
							bw = 1 / (rf/bw + (1-rf)/a.tier.spillBW[w])
						}
					}
					a.streamDen[(s*2+w)*2+r] = bw / share
				}
				a.randLat[s*2+w] = m.randomNLatency(a, s, w == 1)
			}
		}
	}
}

// randomNLatency is the expected latency of one of RandomN's accesses to a
// from a thread on socket ts: the device latency weighted by the share of a
// placed on ts, blended with near-memory misses on the cached tier and with
// on-chip hits for small arrays.
func (m *Machine) randomNLatency(a *Array, ts int, isWrite bool) float64 {
	fl := a.fracOnSocket(ts)
	lat := fl*a.tier.lat[0] + (1-fl)*a.tier.lat[1]
	if a.tier.cached {
		hp := a.hitProb
		missLat := fl*a.tier.missLat[0] + (1-fl)*a.tier.missLat[1]
		if isWrite {
			missLat *= 1.3
		}
		lat = hp*lat + (1-hp)*missLat
	}
	if a.l3Prob > 0 {
		lat = a.l3Prob*m.cost.L3HitLatency + (1-a.l3Prob)*lat
	}
	return lat
}

// expectedMisses charges the TLB hits and misses expected of fn accesses
// scattered over a, translated through pageSize pages, and returns the
// misses. thpResidue adds a THP allocation's 4 KB-backed residue, which
// misses almost always under random access. It is kept within the
// compiler's inlining budget: as a call it costs ~1.5 ns per RandomN.
func expectedMisses(t *Thread, a *Array, pageSize int64, thpResidue bool, fn float64) float64 {
	reach := float64(len(t.tlb.class(pageSize).slots)) * float64(pageSize)
	missFrac := max(1-reach/float64(a.bytes), 0)
	if thpResidue {
		missFrac = missFrac*(1-thpSmallFraction) + thpSmallFraction
	}
	t.C.TLBMisses += uint64(missFrac * fn)
	t.C.TLBHits += uint64((1 - missFrac) * fn)
	return missFrac * fn
}

// randomBatch charges n independent random line accesses at random-access
// bandwidth (Table 1's "Random" rows). Translation and fault costs are
// charged per distinct page estimated from the footprint.
func (m *Machine) randomBatch(t *Thread, a *Array, n int64, isWrite bool) {
	if n <= 0 {
		return
	}
	bytes := n * 64
	countAccess(t, a, n, bytes, isWrite)
	// With accesses scattered uniformly, nearly every access touches a
	// cold page w.r.t. the tiny TLB. With many independent accesses in
	// flight, the walks overlap the data fetches.
	walkNs := expectedMisses(t, a, a.effectivePageSize(t), false, float64(n)) * m.walkNs * walkOverlap
	t.C.PageWalkNs += walkNs
	t.Advance(walkNs)

	socket := a.socketOf(0)
	local := socket == t.Socket
	if local {
		t.C.LocalAccesses += uint64(n)
	} else {
		t.C.RemoteAccesses += uint64(n)
	}

	w := bit(isWrite)
	bw := a.tier.randBW[w][bit(!local)]
	if a.tier.cached {
		// Mix in media-speed accesses for the non-resident share.
		hp := m.hitProb[socket]
		if hp < 1 {
			bw = 1 / (hp/bw + (1-hp)/a.tier.mediaRandBW[w])
		}
		t.C.NearMemHits += uint64(hp * float64(n))
		t.C.NearMemMisses += uint64((1 - hp) * float64(n))
	}
	t.Advance(float64(bytes) / (bw / m.share(a, socket)))
}

// randomN charges n latency-bound random accesses in expectation. See
// Array.RandomN.
func (m *Machine) randomN(t *Thread, a *Array, n int64, isWrite bool) {
	if n <= 0 {
		return
	}
	fn := float64(n)
	countAccess(t, a, n, n*64, isWrite)

	pageSize := a.pageSize
	if a.opts.THP {
		pageSize = PageHuge
	}
	walkNs := expectedMisses(t, a, pageSize, a.opts.THP, fn) * m.walkNs
	t.C.PageWalkNs += walkNs

	// Locality: fraction of accesses landing on the thread's socket.
	fl := a.fracOnSocket(t.Socket)
	t.C.LocalAccesses += uint64(fl * fn)
	t.C.RemoteAccesses += uint64((1 - fl) * fn)

	// Expected device latency, resolved at region start.
	lat := a.randLat[t.Socket*2+bit(isWrite)]
	if a.tier.cached {
		hp := a.hitProb
		t.C.NearMemHits += uint64(hp * fn)
		t.C.NearMemMisses += uint64((1 - hp) * fn)
	}

	// Migration daemon in expectation.
	if m.cfg.NUMAMigration && fl < 1 {
		expMig := (1 - fl) * fn * a.migProb
		if expMig > 0 {
			t.AdvanceKernel(expMig * a.migNs)
			migs := uint64(expMig)
			if t.chance(expMig - float64(migs)) {
				migs++
			}
			if migs > 0 {
				t.C.Migrations += migs
				t.shootdowns += migs
			}
		}
	}

	t.Advance((lat + walkNs/fn) * fn * t.smtScale)
}
