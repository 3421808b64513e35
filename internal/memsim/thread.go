package memsim

// Thread is one virtual hardware thread inside a Parallel region. It carries
// its own simulated clock, TLB, RNG, counters and per-array traffic, so
// threads never share mutable simulator state and the simulation stays
// deterministic per thread regardless of goroutine interleaving. A Machine
// keeps its Threads for its whole life and resets them at the start of each
// region.
type Thread struct {
	m *Machine
	// ID is the virtual thread index within the region, in [0, threads).
	ID int
	// Socket is the NUMA node this thread's core belongs to. Thread
	// pinning is compact: threads fill socket 0's cores, then socket 1's,
	// then wrap for SMT siblings — matching the paper's observation that
	// runs with <= 24 threads keep all threads on one socket.
	Socket int
	// home is the socket compact pinning gives ID, where an unpinned
	// region runs the thread.
	home int

	// Clock is the thread's simulated time in nanoseconds since the
	// start of the enclosing Parallel region.
	Clock float64
	// C collects this thread's simulated hardware events.
	C Counters

	tlb tlb
	rng uint64

	// smtScale multiplies charged compute time when SMT siblings share a
	// core (two threads per core each run at ~74% of a full core).
	smtScale float64

	// shootdowns counts the TLB-shootdown batches this thread's migrations
	// generated during the region. The machine sums the per-thread counts
	// in thread-index order at the region barrier and charges the IPIs to
	// every thread, so the total is independent of goroutine interleaving.
	shootdowns uint64

	// touches is this thread's first-touch intent overlay: one lazily
	// allocated bitmap per array recording pages the thread touched first
	// during the current region. The arrays' global touched bitmaps are
	// frozen while a region runs; the machine merges the overlays at the
	// barrier (two-phase first touch), so fault charging depends only on
	// the thread's own access sequence, never on sibling timing.
	touches map[*Array][]uint64

	// cells[id] is this thread's private state for the live array with
	// that id (see Array.id and arrayCell).
	cells []arrayCell

	// Last-touched line memo: consecutive accesses to the same 64-byte
	// line of the same array hit in L1 and cost almost nothing.
	lastArray *Array
	lastLine  int64
}

// newThread builds virtual thread id of m's pool, allocating its TLB once.
// Its start-of-region state comes from reset, as a reused thread's does.
func newThread(m *Machine, id int) *Thread {
	return &Thread{m: m, ID: id, home: threadSocket(&m.cfg, id), tlb: newTLB(m.cfg.TLB)}
}

// reset readies t for a region on socket with the region's SMT scale: a
// zero clock and counters, the thread's fixed RNG seed, an empty TLB and no
// line memo. The barrier of the previous region has already emptied the
// touch overlay and zeroed the traffic cells.
func (t *Thread) reset(socket int, smtScale float64) {
	t.Socket = socket
	t.Clock = 0
	t.C = Counters{}
	t.rng = 0x9E3779B97F4A7C15 ^ (uint64(t.ID+1) * 0xBF58476D1CE4E5B9)
	t.smtScale = smtScale
	t.shootdowns = 0
	t.lastArray, t.lastLine = nil, 0
	t.tlb.reset()
}

// arrayCell is one thread's private state for one live array. traffic is
// the [read, written] bytes the thread charged against the array during the
// region; the machine folds it into the array's totals at the barrier, in
// thread-index order, and zeroes it. slot is the TLB slot that last held a
// page of the array, which access probes before lookup's LRU scan (see
// tlbClass.holds); it is only a hint, so it outlives reset and Free.
type arrayCell struct {
	traffic [2]uint64
	slot    int32
}

// growCells extends t's cells to cover array id.
func (t *Thread) growCells(id int) {
	t.cells = append(t.cells, make([]arrayCell, id+1-len(t.cells))...)
}

// threadSocket maps virtual thread IDs to sockets using compact pinning.
func threadSocket(cfg *MachineConfig, id int) int {
	core := id % (cfg.Sockets * cfg.CoresPerSocket)
	return core / cfg.CoresPerSocket
}

// next returns the next value of the thread's xorshift64* RNG.
func (t *Thread) next() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

// chance reports true with probability p, deterministically per thread.
func (t *Thread) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(t.next()>>11)/(1<<53) < p
}

// Advance charges ns of user time (compute or memory stall) to the thread.
func (t *Thread) Advance(ns float64) {
	t.Clock += ns
	t.C.UserNs += ns
}

// AdvanceKernel charges ns of simulated kernel time to the thread.
func (t *Thread) AdvanceKernel(ns float64) {
	t.Clock += ns
	t.C.KernelNs += ns
}

// Op charges the fixed per-operator compute cost n times. Kernels call this
// once per operator application so that computation is not free relative to
// memory accesses.
func (t *Thread) Op(n int) {
	t.Advance(t.m.cost.OpCost * float64(n) * t.smtScale)
}

// Decode charges the CPU cost of decompressing `edges` delta+varint edges
// across `blocks` compressed adjacency blocks (cursor setup per block plus
// per-edge decode; see CostParams.DecodePerEdge).
func (t *Thread) Decode(blocks, edges int64) {
	if blocks <= 0 && edges <= 0 {
		return
	}
	c := t.m.cost
	t.Advance((float64(blocks)*c.DecodePerVertex + float64(edges)*c.DecodePerEdge) * t.smtScale)
}
