package memsim

// This file implements the microbenchmarks the paper uses to characterize
// the platform: the Table 1 bandwidth matrix, the Table 2 latency matrix,
// and the §4.1 NUMA-allocation write microbenchmark behind Figure 4.

// MicroResult reports one microbenchmark run.
type MicroResult struct {
	ElapsedSec float64
	GBPerSec   float64
	NsPerOp    float64
	Counters   Counters
}

// microAlloc allocates the working buffer for a microbenchmark.
func (m *Machine) microAlloc(bytes int64, policy Policy, threads int, appDirect bool) *Array {
	return m.MustAlloc("micro", bytes/8, 8, AllocOpts{
		Policy:       policy,
		BlockThreads: threads,
		AppDirect:    appDirect,
	})
}

// WriteMicro reproduces the paper's §4.1 microbenchmark: allocate bytes with
// the given policy and write every location once with threads threads, each
// thread writing one contiguous block sequentially. It returns the simulated
// elapsed time.
func (m *Machine) WriteMicro(bytes int64, policy Policy, threads int) MicroResult {
	a := m.microAlloc(bytes, policy, threads, false)
	defer m.Free(a)
	n := a.Len()
	tc := int64(threadCount(m, threads))
	stats := m.Parallel(threads, func(t *Thread) {
		lo := n * int64(t.ID) / tc
		hi := n * int64(t.ID+1) / tc
		a.WriteRange(t, lo, hi)
	})
	return MicroResult{
		ElapsedSec: stats.ElapsedNs / 1e9,
		GBPerSec:   float64(bytes) / stats.ElapsedNs,
		Counters:   stats.Counters,
	}
}

// BandwidthPattern selects the Table 1 access pattern.
type BandwidthPattern int

// Bandwidth microbenchmark patterns.
const (
	SeqRead BandwidthPattern = iota
	SeqWrite
	RandRead
	RandWrite
)

// String implements fmt.Stringer.
func (p BandwidthPattern) String() string {
	switch p {
	case SeqRead:
		return "seq-read"
	case SeqWrite:
		return "seq-write"
	case RandRead:
		return "rand-read"
	case RandWrite:
		return "rand-write"
	default:
		return "unknown"
	}
}

// BandwidthMicro measures aggregate bandwidth for one Table 1 cell: data is
// placed on socket 0 and threads are pinned to socket 0 (local) or
// socket 1 (remote). appDirect selects the app-direct row (requires the
// machine to be in AppDirect mode).
func (m *Machine) BandwidthMicro(pattern BandwidthPattern, local bool, threads int, bytes int64, appDirect bool) MicroResult {
	a := m.MustAlloc("micro-bw", bytes/8, 8, AllocOpts{
		Policy:    Local,
		AppDirect: appDirect,
	})
	defer m.Free(a)
	socket := 0
	if !local {
		socket = 1
	}
	n := a.Len()
	tc := int64(threadCount(m, threads))
	stats := m.ParallelPinned(socket, threads, func(t *Thread) {
		lo := n * int64(t.ID) / tc
		hi := n * int64(t.ID+1) / tc
		switch pattern {
		case SeqRead:
			a.ReadRange(t, lo, hi)
		case SeqWrite:
			a.WriteRange(t, lo, hi)
		case RandRead:
			a.RandomBatch(t, hi-lo, false)
		case RandWrite:
			a.RandomBatch(t, hi-lo, true)
		}
	})
	// Sequential patterns move the buffer once; random patterns move a
	// full 64-byte line per access, which is what the device transfers
	// and what the paper's bandwidth micro reports.
	moved := float64(bytes)
	if pattern == RandRead || pattern == RandWrite {
		moved = float64(n * 64)
	}
	return MicroResult{
		ElapsedSec: stats.ElapsedNs / 1e9,
		GBPerSec:   moved / stats.ElapsedNs,
		Counters:   stats.Counters,
	}
}

// LatencyMicro measures dependent-load latency for one Table 2 cell: a
// single thread pointer-chases through a buffer placed on socket 0, pinned
// either to socket 0 (local) or socket 1 (remote).
func (m *Machine) LatencyMicro(local bool, accesses int64, bytes int64, appDirect bool) MicroResult {
	a := m.MustAlloc("micro-lat", bytes/8, 8, AllocOpts{
		Policy:    Local,
		PageSize:  PageGiant, // isolate device latency from TLB effects
		AppDirect: appDirect,
	})
	defer m.Free(a)
	socket := 0
	if !local {
		socket = 1
	}
	n := a.Len()
	stats := m.ParallelPinned(socket, 1, func(t *Thread) {
		idx := int64(12345)
		for i := int64(0); i < accesses; i++ {
			idx = (idx*2862933555777941757 + 3037000493) % n
			if idx < 0 {
				idx += n
			}
			a.Read(t, idx)
		}
	})
	return MicroResult{
		ElapsedSec: stats.ElapsedNs / 1e9,
		NsPerOp:    stats.ElapsedNs / float64(accesses),
		Counters:   stats.Counters,
	}
}
