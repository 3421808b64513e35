package memsim

import (
	"fmt"
	"sync/atomic"
)

// Policy selects the NUMA allocation policy of an Array (§4.1, Figure 3).
type Policy int

const (
	// Local places all pages on a preferred socket, spilling to the next
	// socket only when the preferred socket's capacity is exhausted
	// (numa_alloc_onnode / default first-touch from one thread).
	Local Policy = iota
	// Interleaved round-robins pages across sockets (numactl
	// --interleave or numa_alloc_interleaved).
	Interleaved
	// Blocked divides the allocation into contiguous per-thread blocks
	// and places each block on the first-touching thread's socket (the
	// Galois first-touch blocked policy; blocks are per *thread*, not
	// per socket, which is why runs with <= 24 threads place everything
	// on socket 0).
	Blocked
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Local:
		return "local"
	case Interleaved:
		return "interleaved"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// AllocOpts refines an allocation.
type AllocOpts struct {
	// Policy is the NUMA placement policy.
	Policy Policy
	// PreferredSocket is the target socket for Local placement.
	PreferredSocket int
	// BlockThreads is the thread count used to compute Blocked placement
	// boundaries; zero means the machine's full thread count.
	BlockThreads int
	// PageSize overrides the machine's default page size (0 = default).
	// The Galois engine passes PageHuge explicitly; framework emulations
	// pass PageSmall with THP set.
	PageSize int64
	// THP marks the allocation as relying on Transparent Huge Pages:
	// most of it is backed by 2 MB pages, but a fraction of translations
	// still go through 4 KB pages (defragmentation gaps), which is why
	// the paper finds explicit huge pages faster than THP (§6.1).
	THP bool
	// AppDirect places the allocation on the Optane media when the
	// machine is in app-direct mode (external storage for the
	// out-of-core experiments).
	AppDirect bool
}

// Array is a simulated allocation. Kernels operate on native Go slices for
// the actual data and mirror their access stream onto the Array, which
// charges simulated time and counters to the accessing thread.
type Array struct {
	m    *Machine
	name string

	elemSize int64
	length   int64
	bytes    int64

	pageSize  int64
	pageShift uint // log2(pageSize): page sizes are powers of two
	numPages  int64
	baseAddr  uint64 // global virtual base address

	opts AllocOpts

	// segments describe Local placement spills: sorted by startPage.
	segments []placeSegment

	// placed[s] is the footprint place reserved on socket s, which Free
	// releases.
	placed []int64

	// frac[s] is the fraction of the bytes placed on socket s. Placement is
	// final when Alloc returns, so it is derived there once: the cost model
	// reads it on every charged access.
	frac []float64

	// touched tracks first-touch minor faults, one bit per page.
	touched []atomic.Uint64

	// l3Prob is the probability an access short-circuits in the on-chip
	// cache hierarchy, derived from the array's size relative to L3.
	l3Prob float64

	// tier is the memory device serving the array, fixed by Alloc.
	tier *tier
	// migProb is the probability that a remote access migrates its page
	// when the migration daemon runs; migNs is one migration's kernel
	// cost. Both depend on the page size, fixed by Alloc.
	migProb, migNs float64

	// Values the charge paths would otherwise rederive on every access,
	// resolved by the machine at the start of each region (see
	// Machine.resolve): streamDen[(s*2+write)*2+remote] is the per-thread
	// streaming bandwidth bw/share of socket s, randLat[s*2+write] the
	// expected latency of one RandomN access from a thread on socket s, and
	// hitProb the footprint-weighted near-memory hit probability RandomN
	// counts with.
	streamDen []float64
	randLat   []float64
	hitProb   float64

	freed bool

	// id indexes the machine's live arrays and each thread's cells. Free
	// returns it for reuse, so ids stay dense.
	id int

	// readBytes/writeBytes total the simulated traffic charged against
	// this allocation by finished regions. Region threads count into
	// their own cells (Thread.cells); the machine adds the cells here at
	// the region barrier, in thread-index order, so nothing writes these
	// fields while a region runs.
	readBytes, writeBytes uint64
}

// Traffic returns the simulated bytes read from and written to this
// allocation by the regions that have finished so far (valid after Free
// too; counters survive release).
func (a *Array) Traffic() (read, written uint64) {
	return a.readBytes, a.writeBytes
}

type placeSegment struct {
	startPage int64
	socket    int
}

// Name returns the allocation's diagnostic name.
func (a *Array) Name() string { return a.name }

// Len returns the number of elements.
func (a *Array) Len() int64 { return a.length }

// Bytes returns the allocation size in bytes.
func (a *Array) Bytes() int64 { return a.bytes }

// pageOf returns the page index containing element i (i*elemSize/pageSize
// for the non-negative indices the charge paths pass).
func (a *Array) pageOf(i int64) int64 {
	return i * a.elemSize >> a.pageShift
}

// pageID returns the translation-page number of a's page p under pages of
// 1<<shift bytes: (baseAddr + p*pageSize) / (1<<shift).
func (a *Array) pageID(p int64, shift uint) uint64 {
	return (a.baseAddr + uint64(p)<<a.pageShift) >> shift
}

// socketOf returns the socket that page p resides on.
func (a *Array) socketOf(p int64) int {
	switch a.opts.Policy {
	case Interleaved:
		if mask := a.m.sockMask; mask >= 0 {
			return int(p & mask)
		}
		return int(p % int64(a.m.cfg.Sockets))
	case Blocked:
		threads := a.opts.BlockThreads
		if threads <= 0 {
			threads = a.m.cfg.MaxThreads()
		}
		if a.numPages == 0 {
			return 0
		}
		owner := int(p * int64(threads) / a.numPages)
		if owner >= threads {
			owner = threads - 1
		}
		return threadSocket(&a.m.cfg, owner)
	default: // Local with capacity spill
		for i := len(a.segments) - 1; i >= 0; i-- {
			if p >= a.segments[i].startPage {
				return a.segments[i].socket
			}
		}
		return a.opts.PreferredSocket
	}
}

// firstTouch reports whether thread t is the first to touch page p, judged
// against the global touched bitmap frozen at region start plus t's own
// first-touch overlay. The global bitmap is never written mid-region; the
// machine merges every thread's overlay at the region barrier (two-phase
// first touch). Concurrent first touches of one page by distinct threads
// each charge a fault — deterministically, because the decision depends
// only on the thread's own access sequence.
func (a *Array) firstTouch(t *Thread, p int64) bool {
	w := p >> 6
	mask := uint64(1) << (uint(p) & 63)
	if a.touched[w].Load()&mask != 0 {
		return false
	}
	if t.touches == nil {
		t.touches = make(map[*Array][]uint64)
	}
	ov := t.touches[a]
	if ov == nil {
		ov = make([]uint64, len(a.touched))
		t.touches[a] = ov
	}
	if ov[w]&mask != 0 {
		return false
	}
	ov[w] |= mask
	return true
}

// effectivePageSize returns the page size used for this particular
// translation. THP allocations resolve a fraction of translations through
// 4 KB pages.
func (a *Array) effectivePageSize(t *Thread) int64 {
	if a.opts.THP && t.chance(thpSmallFraction) {
		return PageSmall
	}
	return a.pageSize
}

// Read charges a random read of element i.
func (a *Array) Read(t *Thread, i int64) {
	a.m.access(t, a, i, 1, false, false)
}

// Write charges a random write of element i.
func (a *Array) Write(t *Thread, i int64) {
	a.m.access(t, a, i, 1, true, false)
}

// ReadN charges a read of n consecutive elements starting at i, costed as a
// single random access plus line-sized sequential spill (a short gather,
// e.g. one vertex's edge offsets).
func (a *Array) ReadN(t *Thread, i, n int64) {
	if n <= 0 {
		return
	}
	a.m.access(t, a, i, n, false, n*a.elemSize > 256)
}

// ReadRange charges a sequential scan of elements [i, j).
func (a *Array) ReadRange(t *Thread, i, j int64) {
	if j <= i {
		return
	}
	a.m.access(t, a, i, j-i, false, true)
}

// WriteRange charges a sequential write of elements [i, j).
func (a *Array) WriteRange(t *Thread, i, j int64) {
	if j <= i {
		return
	}
	a.m.access(t, a, i, j-i, true, true)
}

// fracOnSocket returns the fraction of the allocation's bytes placed on
// socket s, used by the bandwidth-sharing model.
func (a *Array) fracOnSocket(s int) float64 { return a.frac[s] }

// placedFrac derives fracOnSocket from the placement.
func (a *Array) placedFrac(s int) float64 {
	sockets := a.m.cfg.Sockets
	switch a.opts.Policy {
	case Interleaved:
		return 1 / float64(sockets)
	case Blocked:
		threads := a.opts.BlockThreads
		if threads <= 0 {
			threads = a.m.cfg.MaxThreads()
		}
		on := 0
		for t := 0; t < threads; t++ {
			if threadSocket(&a.m.cfg, t) == s {
				on++
			}
		}
		return float64(on) / float64(threads)
	default:
		var span int64
		for i, seg := range a.segments {
			if seg.socket != s {
				continue
			}
			endPage := a.numPages
			if i+1 < len(a.segments) {
				endPage = a.segments[i+1].startPage
			}
			span += (endPage - seg.startPage) * a.pageSize
		}
		if span > a.bytes {
			span = a.bytes
		}
		if a.bytes == 0 {
			return 1
		}
		return float64(span) / float64(a.bytes)
	}
}

// RandomBatch charges n independent random cache-line accesses, costed
// against the device's random-access bandwidth rather than dependent-load
// latency (the access pattern of a bandwidth microbenchmark with many
// outstanding misses per core).
func (a *Array) RandomBatch(t *Thread, n int64, isWrite bool) {
	a.m.randomBatch(t, a, n, isWrite)
}

// Warm marks every page of the allocation as already touched and installs
// nothing in any TLB. The harness warms graph topology arrays after loading
// because the paper excludes graph loading and construction time from all
// reported numbers.
func (a *Array) Warm() {
	for i := range a.touched {
		a.touched[i].Store(^uint64(0))
	}
}

// RandomN charges n independent latency-bound random accesses in
// expectation: instead of sampling each access, the expected TLB, near-
// memory, NUMA and migration costs are charged in one call. Kernels use it
// for per-vertex neighbor-label gathers, where issuing one simulator call
// per edge would dominate host time.
func (a *Array) RandomN(t *Thread, n int64, isWrite bool) {
	a.m.randomN(t, a, n, isWrite)
}
