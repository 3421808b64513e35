package memsim

// CostParams holds every latency, bandwidth, and kernel-overhead constant the
// simulator uses. The Optane numbers come directly from Tables 1 and 2 of the
// paper; the DDR4 numbers (which the paper does not tabulate) use standard
// Cascade Lake figures; the Optane media-level constants follow Izraelevitz
// et al. (arXiv:1903.05714), which the paper cites for device behaviour.
//
// All latencies are in nanoseconds, all bandwidths in bytes per nanosecond
// (which is numerically identical to GB/s).
type CostParams struct {
	// DRAM load-to-use latency when DRAM is main memory (or the
	// near-memory hit latency contribution in memory mode).
	DRAMLatencyLocal  float64
	DRAMLatencyRemote float64

	// Memory-mode latency (near-memory hit): Table 2, "Memory" row.
	NearMemHitLocal  float64
	NearMemHitRemote float64

	// Memory-mode near-memory miss: the access must go to the Optane
	// media behind the DRAM cache and fill a 4 KB near-memory line.
	NearMemMissLocal  float64
	NearMemMissRemote float64

	// App-direct latency: Table 2, "App-direct" row.
	AppDirectLatencyLocal  float64
	AppDirectLatencyRemote float64

	// Bandwidths, Table 1 (memory mode). Bytes/ns == GB/s.
	MMSeqReadLocal    float64
	MMSeqReadRemote   float64
	MMRandReadLocal   float64
	MMRandReadRemote  float64
	MMSeqWriteLocal   float64
	MMSeqWriteRemote  float64
	MMRandWriteLocal  float64
	MMRandWriteRemote float64

	// Bandwidths, Table 1 (app-direct mode).
	ADSeqReadLocal    float64
	ADSeqReadRemote   float64
	ADRandReadLocal   float64
	ADRandReadRemote  float64
	ADSeqWriteLocal   float64
	ADSeqWriteRemote  float64
	ADRandWriteLocal  float64
	ADRandWriteRemote float64

	// DRAM bandwidths when DRAM is main memory (6-channel DDR4-2666 per
	// socket on Cascade Lake).
	DRAMSeqRead   float64
	DRAMSeqWrite  float64
	DRAMRandRead  float64
	DRAMRandWrite float64
	// Remote DRAM bandwidth is capped by the UPI links.
	DRAMRemoteCap float64

	// Optane media behaviour behind the near-memory cache. Spill
	// bandwidth is the sustained media write bandwidth that limits
	// streaming writes once the footprint exceeds near-memory.
	MediaSpillWriteBW float64
	MediaSpillReadBW  float64

	// On-chip cache model: probability-weighted short-circuit for arrays
	// that fit in the last-level cache.
	L3HitLatency float64

	// Page-walk cost on a TLB miss. Walks read page-table entries from
	// memory; in memory mode those reads themselves pay near-memory
	// costs, which is why the paper observes TLB misses hurting more on
	// Optane (§4.3).
	PageWalkDRAM   float64
	PageWalkOptane float64

	// Kernel overheads (§4.2). MinorFault is charged on first touch of a
	// page; MigrationBookkeeping per migrated page (access sampling,
	// unmapping, copying bookkeeping); ShootdownPerThread is the IPI +
	// invalidation cost charged to every running thread per TLB
	// shootdown batch; MigrationCopyPerByte the page copy itself.
	MinorFaultDRAM          float64
	MinorFaultOptane        float64
	MigrationBookkeepDRAM   float64
	MigrationBookkeepOptane float64
	ShootdownPerThread      float64
	MigrationCopyPerByte    float64

	// Fixed per-operator CPU cost charged by kernels (instruction
	// execution that overlaps no memory access), and the per-parallel-
	// region fork/join overhead.
	OpCost       float64
	ForkJoinCost float64

	// Compressed-CSR decode costs (the byte-compressed storage backend,
	// core.BackendCompressed): DecodePerEdge is the varint+delta decode
	// of one edge, DecodePerVertex the per-block cursor setup (degree
	// varint, offset pair arithmetic). These make the backend's
	// bandwidth-for-compute trade explicit: compression saves streamed
	// slow-tier bytes but every decoded edge pays CPU here.
	DecodePerEdge   float64
	DecodePerVertex float64
}

// DefaultCost returns the calibrated cost table. Values marked (T1)/(T2) are
// copied from the paper's Table 1/Table 2.
func DefaultCost() CostParams {
	return CostParams{
		DRAMLatencyLocal:  81,
		DRAMLatencyRemote: 138,

		NearMemHitLocal:  95,  // (T2)
		NearMemHitRemote: 150, // (T2)

		NearMemMissLocal:  400, // hit check + media read + line fill
		NearMemMissRemote: 500,

		AppDirectLatencyLocal:  164, // (T2)
		AppDirectLatencyRemote: 232, // (T2)

		MMSeqReadLocal:    106,  // (T1)
		MMSeqReadRemote:   100,  // (T1)
		MMRandReadLocal:   90,   // (T1)
		MMRandReadRemote:  34,   // (T1)
		MMSeqWriteLocal:   54,   // (T1)
		MMSeqWriteRemote:  29.5, // (T1)
		MMRandWriteLocal:  50,   // (T1)
		MMRandWriteRemote: 29.5, // (T1)

		ADSeqReadLocal:    31,   // (T1)
		ADSeqReadRemote:   21,   // (T1)
		ADRandReadLocal:   8.2,  // (T1)
		ADRandReadRemote:  5.5,  // (T1)
		ADSeqWriteLocal:   10.5, // (T1)
		ADSeqWriteRemote:  7.5,  // (T1)
		ADRandWriteLocal:  3.6,  // (T1)
		ADRandWriteRemote: 2.3,  // (T1)

		DRAMSeqRead:   107,
		DRAMSeqWrite:  80,
		DRAMRandRead:  95,
		DRAMRandWrite: 70,
		DRAMRemoteCap: 60,

		MediaSpillWriteBW: 7.5,
		MediaSpillReadBW:  30,

		L3HitLatency: 20,

		PageWalkDRAM:   45,
		PageWalkOptane: 140,

		MinorFaultDRAM:          900,
		MinorFaultOptane:        1800,
		MigrationBookkeepDRAM:   2500,
		MigrationBookkeepOptane: 6000,
		ShootdownPerThread:      900,
		MigrationCopyPerByte:    0.02,

		OpCost:       2.2,
		ForkJoinCost: 12000,

		// ~4-6 decode instructions per short varint on a ~3 GHz core,
		// in line with the small decode overheads Ligra+/GBBS report.
		DecodePerEdge:   1.4,
		DecodePerVertex: 3.5,
	}
}
