package memsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Machine is a simulated NUMA machine. It owns the global simulated wall
// clock, the allocation map, and the per-socket footprint accounting that
// drives the near-memory cache model.
//
// Machine is safe for use by the goroutines of a single Parallel region;
// distinct Parallel regions must not overlap.
type Machine struct {
	cfg  MachineConfig
	cost *CostParams

	wallNs   float64
	counters Counters

	// volatileBytes is the number of bytes placed on each socket in the
	// volatile pool (Optane media in memory mode, DRAM otherwise).
	// adBytes tracks app-direct placements.
	volatileBytes []int64
	adBytes       []int64

	nextAddr uint64
	allocs   map[string]*Array

	// Region state, valid while a Parallel region runs.
	regionThreads         int
	regionThreadsOnSocket []int32

	// thpSmallFraction is the fraction of translations on THP-backed
	// allocations that still resolve through 4 KB pages.
	thpSmallFraction float64
}

// NewMachine builds a Machine from cfg. It panics on invalid configuration
// (a programming error, not a runtime condition).
func NewMachine(cfg MachineConfig) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cost := cfg.Cost
	m := &Machine{
		cfg:                   cfg,
		cost:                  &cost,
		volatileBytes:         make([]int64, cfg.Sockets),
		adBytes:               make([]int64, cfg.Sockets),
		allocs:                make(map[string]*Array),
		regionThreadsOnSocket: make([]int32, cfg.Sockets),
		thpSmallFraction:      0.30,
	}
	return m
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

// socketCapacity returns the volatile-pool capacity of one socket.
func (m *Machine) socketCapacity() int64 {
	if m.cfg.Mode == MemoryMode {
		return m.cfg.PMMPerSocket
	}
	return m.cfg.DRAMPerSocket
}

// Alloc creates a simulated allocation of n elements of elemSize bytes.
func (m *Machine) Alloc(name string, n int64, elemSize int64, opts AllocOpts) (*Array, error) {
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
		m:        m,
		name:     name,
		elemSize: elemSize,
		length:   n,
		bytes:    bytes,
		pageSize: pageSize,
		numPages: numPages,
		baseAddr: m.nextAddr,
		opts:     opts,
		touched:  make([]atomic.Uint64, (numPages+63)/64),
	}
	// Advance the virtual address cursor, giant-page aligned so arrays
	// never share a translation page of any size class.
	m.nextAddr += (uint64(bytes)/PageGiant + 1) * PageGiant

	if err := m.place(a); err != nil {
		return nil, err
	}
	a.frac = make([]float64, m.cfg.Sockets)
	for s := range a.frac {
		a.frac[s] = a.placedFrac(s)
	}

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

// place computes page placement and updates footprint accounting.
func (m *Machine) place(a *Array) error {
	sockets := m.cfg.Sockets
	pool := m.volatileBytes
	if a.opts.AppDirect {
		if m.cfg.Mode != AppDirect {
			return fmt.Errorf("memsim: alloc %q: app-direct placement requires app-direct mode", a.name)
		}
		pool = m.adBytes
	}
	switch a.opts.Policy {
	case Interleaved:
		per := a.bytes / int64(sockets)
		for s := 0; s < sockets; s++ {
			pool[s] += per
		}
	case Blocked:
		threads := a.opts.BlockThreads
		if threads <= 0 {
			threads = m.cfg.MaxThreads()
		}
		perThread := a.bytes / int64(threads)
		for t := 0; t < threads; t++ {
			pool[threadSocket(&m.cfg, t)] += perThread
		}
	default: // Local with spill
		cap := m.socketCapacity()
		if a.opts.AppDirect {
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
					pool[s] += remaining
					break
				}
				continue
			}
			take := remaining
			if take > free {
				take = free
			}
			a.segments = append(a.segments, placeSegment{startPage: page, socket: s})
			pool[s] += take
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

// Free releases an allocation's footprint.
func (m *Machine) Free(a *Array) {
	if a == nil || a.freed {
		return
	}
	a.freed = true
	delete(m.allocs, a.name)
	sockets := m.cfg.Sockets
	pool := m.volatileBytes
	if a.opts.AppDirect {
		pool = m.adBytes
	}
	switch a.opts.Policy {
	case Interleaved:
		per := a.bytes / int64(sockets)
		for s := 0; s < sockets; s++ {
			pool[s] -= per
		}
	case Blocked:
		threads := a.opts.BlockThreads
		if threads <= 0 {
			threads = m.cfg.MaxThreads()
		}
		perThread := a.bytes / int64(threads)
		for t := 0; t < threads; t++ {
			pool[threadSocket(&m.cfg, t)] -= perThread
		}
	default:
		// Recompute per-segment byte spans.
		for i, seg := range a.segments {
			endPage := a.numPages
			if i+1 < len(a.segments) {
				endPage = a.segments[i+1].startPage
			}
			span := (endPage - seg.startPage) * a.pageSize
			if span > a.bytes {
				span = a.bytes
			}
			pool[seg.socket] -= span
		}
	}
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
// each thread's Thread handle and must partition work by t.ID.
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
	if threads <= 0 {
		threads = 1
	}
	if max := m.cfg.MaxThreads(); threads > max {
		threads = max
	}
	for s := range m.regionThreadsOnSocket {
		m.regionThreadsOnSocket[s] = 0
	}
	m.regionThreads = threads
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
	ts := make([]*Thread, threads)
	for i := 0; i < threads; i++ {
		s := threadSocket(&m.cfg, i)
		if pinSocket >= 0 {
			s = pinSocket
		}
		m.regionThreadsOnSocket[s]++
		ts[i] = &Thread{
			m:        m,
			ID:       i,
			Socket:   s,
			tlb:      newTLB(m.cfg.TLB),
			rng:      0x9E3779B97F4A7C15 ^ (uint64(i+1) * 0xBF58476D1CE4E5B9),
			smtScale: smtScale,
		}
	}

	// Execute the virtual threads on real goroutines. Each Thread
	// accumulates its charges, counters and simulated time into private
	// state; shared machine state (page-table touch bits, shootdown
	// totals) is only read during the region and updated from recorded
	// intents at the barrier below, so the merged result is byte-identical
	// for every goroutine interleaving and GOMAXPROCS setting.
	var wg sync.WaitGroup
	wg.Add(threads)
	for i := 0; i < threads; i++ {
		go func(t *Thread) {
			defer wg.Done()
			fn(t)
		}(ts[i])
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
	// bitmaps. OR-ing bits is commutative, so the merged bitmap is
	// deterministic regardless of map iteration order.
	for _, t := range ts {
		for a, ov := range t.touches {
			for w, bits := range ov {
				if bits != 0 {
					a.touched[w].Or(bits)
				}
			}
		}
		t.touches = nil
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
	return stats
}

// Sequential runs fn on a single virtual thread pinned to socket 0.
func (m *Machine) Sequential(fn func(t *Thread)) RegionStats {
	return m.Parallel(1, fn)
}

// access is the core cost function: thread t touches n consecutive elements
// of a starting at index i. seq marks streaming accesses charged against
// bandwidth rather than latency.
func (m *Machine) access(t *Thread, a *Array, i, n int64, isWrite, seq bool) {
	bytes := n * a.elemSize
	a.addTraffic(bytes, isWrite)
	if isWrite {
		t.C.Writes++
		t.C.BytesWritten += uint64(bytes)
	} else {
		t.C.Reads++
		t.C.BytesRead += uint64(bytes)
	}

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

	// Address translation and fault service, per page touched.
	pageSize := a.effectivePageSize(t)
	walk := m.cost.PageWalkDRAM
	fault := m.cost.MinorFaultDRAM
	if m.cfg.Mode == MemoryMode {
		walk = m.cost.PageWalkOptane
		fault = m.cost.MinorFaultOptane
	}
	cls := t.tlb.class(pageSize)
	for p := firstPage; p <= lastPage; p++ {
		pid := (a.baseAddr + uint64(p)*uint64(a.pageSize)) / uint64(pageSize)
		if cls.lookup(pid) {
			t.C.TLBHits++
		} else {
			t.C.TLBMisses++
			t.C.PageWalkNs += walk
			t.Clock += walk
			t.C.UserNs += walk
		}
		if a.firstTouch(t, p) {
			t.C.MinorFaults++
			t.AdvanceKernel(fault)
		}
	}

	local := socket == t.Socket
	if local {
		t.C.LocalAccesses++
	} else {
		t.C.RemoteAccesses++
	}

	// NUMA migration daemon (§4.2): remote accesses to migratable pages
	// occasionally trigger a migration. Probability scales inversely
	// with page size: small pages migrate ~512x more often.
	if m.cfg.NUMAMigration && !local {
		prob := 1.0 / 400.0 * float64(PageSmall) / float64(a.pageSize)
		if t.chance(prob) {
			t.C.Migrations++
			book := m.cost.MigrationBookkeepDRAM
			if m.cfg.Mode == MemoryMode {
				book = m.cost.MigrationBookkeepOptane
			}
			t.AdvanceKernel(book + m.cost.MigrationCopyPerByte*float64(a.pageSize))
			t.shootdowns++
			// The migrating thread's own stale entry is dropped.
			t.tlb.class(pageSize).flushRandom(t.next())
		}
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
				ns += m.streamCost(t, a, s, s == t.Socket, isWrite, per)
			}
		} else {
			ns = m.streamCost(t, a, socket, local, isWrite, bytes)
		}
	} else {
		ns = m.randomCost(t, a, socket, local, isWrite) * t.smtScale
		if n > 1 {
			// Short gather: remaining lines stream behind the
			// leading miss.
			ns += m.streamCost(t, a, socket, local, isWrite, bytes-64)
		}
	}
	t.Advance(ns)
}

// randomCost returns the latency of one random (latency-bound) access.
func (m *Machine) randomCost(t *Thread, a *Array, socket int, local, isWrite bool) float64 {
	c := m.cost
	switch {
	case m.cfg.Mode == MemoryMode:
		hit := t.chance(m.nearMemHitProb(socket))
		if hit {
			t.C.NearMemHits++
			if local {
				return c.NearMemHitLocal
			}
			return c.NearMemHitRemote
		}
		t.C.NearMemMisses++
		lat := c.NearMemMissLocal
		if !local {
			lat = c.NearMemMissRemote
		}
		if isWrite {
			// Write misses allocate: read-fill plus eventual
			// dirty writeback to the media.
			lat *= 1.3
		}
		return lat
	case m.cfg.Mode == AppDirect && a.opts.AppDirect:
		if local {
			return c.AppDirectLatencyLocal
		}
		return c.AppDirectLatencyRemote
	default: // DRAM main memory
		if local {
			return c.DRAMLatencyLocal
		}
		return c.DRAMLatencyRemote
	}
}

// streamCost returns the cost of streaming bytes sequentially, charged at
// the per-thread share of the serving socket's bandwidth.
func (m *Machine) streamCost(t *Thread, a *Array, socket int, local, isWrite bool, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	c := m.cost
	// Bandwidth sharing: the serving socket's bandwidth is divided among
	// the threads streaming against it, approximated as the region's
	// thread count weighted by the fraction of this array placed there.
	share := float64(m.regionThreads) * a.fracOnSocket(socket)
	if share < 1 {
		share = 1
	}
	var bw float64
	switch {
	case m.cfg.Mode == MemoryMode:
		if isWrite {
			bw = c.MMSeqWriteLocal
			if !local {
				bw = c.MMSeqWriteRemote
			}
			// Streaming writes beyond near-memory capacity spill
			// to the Optane media at its sustained write rate.
			rf := m.residentFrac(socket)
			if rf < 1 {
				bw = 1 / (rf/bw + (1-rf)/c.MediaSpillWriteBW)
			}
		} else {
			bw = c.MMSeqReadLocal
			if !local {
				bw = c.MMSeqReadRemote
			}
			rf := m.residentFrac(socket)
			if rf < 1 {
				bw = 1 / (rf/bw + (1-rf)/c.MediaSpillReadBW)
			}
		}
	case m.cfg.Mode == AppDirect && a.opts.AppDirect:
		if isWrite {
			bw = c.ADSeqWriteLocal
			if !local {
				bw = c.ADSeqWriteRemote
			}
		} else {
			bw = c.ADSeqReadLocal
			if !local {
				bw = c.ADSeqReadRemote
			}
		}
	default:
		if isWrite {
			bw = c.DRAMSeqWrite
		} else {
			bw = c.DRAMSeqRead
		}
		if !local && bw > c.DRAMRemoteCap {
			bw = c.DRAMRemoteCap
		}
	}
	return float64(bytes) / (bw / share)
}

// randomBatch charges n independent random line accesses at random-access
// bandwidth (Table 1's "Random" rows). Translation and fault costs are
// charged per distinct page estimated from the footprint.
func (m *Machine) randomBatch(t *Thread, a *Array, n int64, isWrite bool) {
	if n <= 0 {
		return
	}
	bytes := n * 64
	a.addTraffic(bytes, isWrite)
	if isWrite {
		t.C.Writes += uint64(n)
		t.C.BytesWritten += uint64(bytes)
	} else {
		t.C.Reads += uint64(n)
		t.C.BytesRead += uint64(bytes)
	}
	// With accesses scattered uniformly, nearly every access touches a
	// cold page w.r.t. the tiny TLB: charge a page walk per access for
	// 4 KB pages, and per reach-weighted fraction for larger pages.
	pageSize := a.effectivePageSize(t)
	cls := t.tlb.class(pageSize)
	reach := float64(len(cls.pages)) * float64(pageSize)
	missFrac := 1 - reach/float64(a.bytes)
	if missFrac < 0 {
		missFrac = 0
	}
	walk := m.cost.PageWalkDRAM
	if m.cfg.Mode == MemoryMode {
		walk = m.cost.PageWalkOptane
	}
	// With many independent accesses in flight, page walks overlap the
	// data fetches; only a fraction of the walk latency is exposed.
	const walkOverlap = 0.12
	walkNs := missFrac * float64(n) * walk * walkOverlap
	t.C.TLBMisses += uint64(missFrac * float64(n))
	t.C.TLBHits += uint64((1 - missFrac) * float64(n))
	t.C.PageWalkNs += walkNs
	t.Advance(walkNs)

	socket := a.socketOf(0)
	local := socket == t.Socket
	if local {
		t.C.LocalAccesses += uint64(n)
	} else {
		t.C.RemoteAccesses += uint64(n)
	}

	share := float64(m.regionThreads) * a.fracOnSocket(socket)
	if share < 1 {
		share = 1
	}
	c := m.cost
	var bw float64
	switch {
	case m.cfg.Mode == MemoryMode:
		if isWrite {
			bw = c.MMRandWriteLocal
			if !local {
				bw = c.MMRandWriteRemote
			}
		} else {
			bw = c.MMRandReadLocal
			if !local {
				bw = c.MMRandReadRemote
			}
		}
		// Mix in media-speed accesses for the non-resident share.
		hp := m.nearMemHitProb(socket)
		if hp < 1 {
			media := c.ADRandReadLocal
			if isWrite {
				media = c.ADRandWriteLocal
			}
			bw = 1 / (hp/bw + (1-hp)/media)
		}
		t.C.NearMemHits += uint64(hp * float64(n))
		t.C.NearMemMisses += uint64((1 - hp) * float64(n))
	case m.cfg.Mode == AppDirect && a.opts.AppDirect:
		if isWrite {
			bw = c.ADRandWriteLocal
			if !local {
				bw = c.ADRandWriteRemote
			}
		} else {
			bw = c.ADRandReadLocal
			if !local {
				bw = c.ADRandReadRemote
			}
		}
	default:
		if isWrite {
			bw = c.DRAMRandWrite
		} else {
			bw = c.DRAMRandRead
		}
		if !local && bw > c.DRAMRemoteCap {
			bw = c.DRAMRemoteCap
		}
	}
	t.Advance(float64(bytes) / (bw / share))
}

// randomN charges n latency-bound random accesses in expectation. See
// Array.RandomN.
func (m *Machine) randomN(t *Thread, a *Array, n int64, isWrite bool) {
	if n <= 0 {
		return
	}
	fn := float64(n)
	bytes := n * 64
	a.addTraffic(bytes, isWrite)
	if isWrite {
		t.C.Writes += uint64(n)
		t.C.BytesWritten += uint64(bytes)
	} else {
		t.C.Reads += uint64(n)
		t.C.BytesRead += uint64(bytes)
	}

	// Translation: expected miss fraction from TLB reach vs footprint.
	pageSize := a.pageSize
	if a.opts.THP {
		pageSize = PageHuge // THP small-page residue handled below
	}
	cls := t.tlb.class(pageSize)
	reach := float64(len(cls.pages)) * float64(pageSize)
	missFrac := 1 - reach/float64(a.bytes)
	if missFrac < 0 {
		missFrac = 0
	}
	if a.opts.THP {
		// The 4 KB-backed residue of a THP allocation misses almost
		// always under random access.
		missFrac = missFrac*(1-m.thpSmallFraction) + m.thpSmallFraction
	}
	walk := m.cost.PageWalkDRAM
	if m.cfg.Mode == MemoryMode {
		walk = m.cost.PageWalkOptane
	}
	walkNs := missFrac * fn * walk
	t.C.TLBMisses += uint64(missFrac * fn)
	t.C.TLBHits += uint64((1 - missFrac) * fn)
	t.C.PageWalkNs += walkNs

	// Locality: fraction of accesses landing on the thread's socket.
	fl := a.fracOnSocket(t.Socket)
	t.C.LocalAccesses += uint64(fl * fn)
	t.C.RemoteAccesses += uint64((1 - fl) * fn)

	// Expected device latency.
	c := m.cost
	var lat float64
	switch {
	case m.cfg.Mode == MemoryMode:
		// Footprint-weighted hit probability across sockets.
		var hp float64
		for s := 0; s < m.cfg.Sockets; s++ {
			frac := a.fracOnSocket(s)
			if frac > 0 {
				hp += frac * m.nearMemHitProb(s)
			}
		}
		hitLat := fl*c.NearMemHitLocal + (1-fl)*c.NearMemHitRemote
		missLat := fl*c.NearMemMissLocal + (1-fl)*c.NearMemMissRemote
		if isWrite {
			missLat *= 1.3
		}
		lat = hp*hitLat + (1-hp)*missLat
		t.C.NearMemHits += uint64(hp * fn)
		t.C.NearMemMisses += uint64((1 - hp) * fn)
	case m.cfg.Mode == AppDirect && a.opts.AppDirect:
		lat = fl*c.AppDirectLatencyLocal + (1-fl)*c.AppDirectLatencyRemote
	default:
		lat = fl*c.DRAMLatencyLocal + (1-fl)*c.DRAMLatencyRemote
	}

	// On-chip cache short-circuit for small arrays.
	if a.l3Prob > 0 {
		lat = a.l3Prob*c.L3HitLatency + (1-a.l3Prob)*lat
	}

	// Migration daemon in expectation.
	if m.cfg.NUMAMigration && fl < 1 {
		prob := 1.0 / 400.0 * float64(PageSmall) / float64(a.pageSize)
		expMig := (1 - fl) * fn * prob
		if expMig > 0 {
			book := c.MigrationBookkeepDRAM
			if m.cfg.Mode == MemoryMode {
				book = c.MigrationBookkeepOptane
			}
			t.AdvanceKernel(expMig * (book + c.MigrationCopyPerByte*float64(a.pageSize)))
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
