// Package engine is the unified Ligra/GBBS-style operator engine the
// round-based analytics kernels are built on — the layer between the
// kernels (internal/analytics) above and the runtime/storage seam
// (internal/core, internal/graph, internal/memsim) below. The paper's
// §5/§6 message is that one runtime with the right worklist and direction
// choices subsumes the per-framework kernel zoo; this package embodies
// that claim as three primitives:
//
//   - EdgeMap: run a row program over the out- (push), in- (pull) or
//     engine-chosen (direction-optimizing) neighborhoods of a frontier,
//     returning the next frontier. A PushRow or PullRow is called once per
//     visited row with the whole row (and its weights), in the shape of
//     internal/shard's emit, so a kernel hoists what is fixed per row and
//     folds reductions in a register. Pull rounds support early exit,
//     charged via prefix scans. A Gather is a range program: one call per
//     scheduler chunk, reading each vertex's in-row through Rows.
//   - VertexMap / VertexFilter: streaming passes (initializers, snapshot
//     publishes, pointer jumps, peel-set selection) whose work is a range
//     program over each chunk; VertexFilter asks its keep predicate per
//     vertex.
//   - Frontier: the active-vertex set, auto-converting between sparse
//     (vertex slice) and dense (bit-vector) representations at a
//     configurable |frontier|+out-edges threshold.
//
// Beside them sits MergeClaims, the one sorted-dedup claim merge in the
// repository: push rounds and VertexFilter drain their per-thread buffers
// through it. internal/shard needs no merge: its claims carry a min or sum
// operand and fold atomically into per-destination accumulators as they
// are emitted, and each owner reads its claimed destinations, already
// ascending, off a Dense.
//
// # Charging contract
//
// The engine owns all memsim charging for frontier management and
// neighborhood iteration: worklist and bit-vector traffic, offsets and
// edge scans (through core.AdjView, so raw and compressed storage
// backends charge their own shapes behind one traversal), and the
// per-edge label gathers kernels declare via Access lists. Charges are
// batched per scheduler chunk (one RandomN/ReadRange per chunk instead of
// one call per vertex), which is cost-identical under the linear memsim
// model but measurably faster to simulate. It also aggregates per-round
// RegionStats into a trace kernels surface through their Result. Kernels
// must not charge traversal traffic themselves; they declare accesses and
// the engine issues them.
//
// # Determinism guarantees
//
// Every simulated number the engine produces — frontier contents, round
// trajectories, charges, and therefore Result bytes — is byte-identical
// at any GOMAXPROCS. Push rounds are two-phase to uphold this (see
// DESIGN.md "Concurrency model"): during the parallel scan, threads
// record activation claims into private per-thread buffers — the scan
// region's charges depend only on the frontier, never on claim outcomes —
// then MergeClaims turns the buffers at the barrier into a deduplicated,
// ID-sorted next frontier and the engine charges its writes in a follow-up
// parallel region. Operators must make claims that are deterministic as a set
// (e.g. judged against round-start snapshots, or unique-claimant
// transitions of commutative updates); the merge then erases any
// nondeterminism in claim attribution or ordering.
package engine
