// Package memsim simulates the memory hierarchy of large-memory NUMA
// machines, in particular machines equipped with Intel Optane DC Persistent
// Memory (PMM) in either memory mode (DRAM acts as a direct-mapped
// "near-memory" cache in front of the Optane media) or app-direct mode
// (Optane is byte-addressable storage, DRAM is main memory).
//
// The simulator is deterministic and runs in virtual time: every virtual
// thread carries its own clock, and the elapsed time of a parallel region is
// the maximum over its threads. Graph kernels execute natively in Go for
// correctness while charging their memory accesses to the simulator through
// Array handles; the simulator translates the access stream into time using
// a cost model calibrated against the latency and bandwidth tables published
// in Gill et al., "Single Machine Graph Analytics on Massive Datasets Using
// Intel Optane DC Persistent Memory" (VLDB 2020).
//
// Modelled effects (paper section in parentheses):
//
//   - NUMA allocation policies: local, interleaved, blocked first-touch (§4.1)
//   - near-memory (DRAM cache) hit/miss behaviour including conflict misses
//     when a socket's footprint exceeds its DRAM (§4.1)
//   - NUMA page migration: bookkeeping kernel time, TLB shootdowns, and the
//     page-size dependence of migration counts (§4.2)
//   - page size selection: per-thread TLBs with separate 4 KB / 2 MB / 1 GB
//     entry budgets, page-walk cost, TLB reach (§4.3)
//   - bandwidth asymmetries between modes, patterns, and local/remote
//     accesses (Tables 1 and 2)
//
// The near-memory cache is modelled statistically (per-socket residency
// ratios give per-access hit probabilities, sampled with per-thread
// deterministic RNGs) while TLBs are simulated exactly per thread. See
// DESIGN.md §5.1 for the rationale.
//
// Costs that depend on the machine's mode are chosen once: NewMachine picks
// the mode's kernel overheads and builds one cost table per memory device
// (memory-mode cached, app-direct media, DRAM), and Alloc points each Array
// at the table serving it, along with its migration probability and cost.
// The charge paths only index those tables, so each calibration constant
// is selected at one site.
//
// Values a charge depends on but that change only with the footprint are
// resolved ahead of the access that uses them, each by the expression, in
// the order of operations, the access once evaluated itself, so every
// simulated bit is what per-access evaluation gives:
//
//   - at Alloc: an array's page shift. Page sizes are validated powers of
//     two, so page and translation-page indices are shifts, equal to the
//     divisions for the non-negative indices charges pass;
//   - whenever place or Free changes a socket's footprint: the socket's
//     near-memory hit probability and resident fraction;
//   - at region start: each live array's streaming denominators (bandwidth
//     over the region's thread share, per socket, direction and locality),
//     its expected RandomN latency per thread socket and direction, and its
//     footprint-weighted hit probability. They depend on the footprint,
//     the placement and the region's thread count, all fixed while the
//     region runs: Alloc and Free panic inside a region. So a region
//     resolves them only when Alloc or Free changed the footprint since
//     the last resolve, or when its thread count differs from the last
//     region's; otherwise the tables hold what resolving again would
//     compute.
//
// A region's fixed cost is what its threads touch. Each virtual thread is
// reset by the worker goroutine that takes it, just before running it:
// its clock, counters, RNG seed, line memo and TLB. A TLB class fills its
// slots in index order after a reset (an invalid slot has stamp 0, below
// every live stamp, and ties go to the lowest slot), so every slot above
// the highest one installed since the reset is invalid with stamp 0. The
// class keeps that high-water mark: reset invalidates only the slots below
// it, and lookup scans only up to the first slot past it, which gives the
// hits, victims and stamps a full scan and a full reset give. A new class
// starts with every slot invalid, as a reset one does.
//
// A thread also keeps, per array, the TLB slot that last held one of the
// array's pages and probes it before the LRU scan. A valid page ID occupies
// at most one slot of a class, so a hint hit is the slot the scan would find
// and updates the same stamp: hit/miss sequences and LRU state are the
// scan's.
package memsim
