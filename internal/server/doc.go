// Package server is the concurrent analytics serving layer: a long-lived
// HTTP/JSON service (cmd/pmemserved) that keeps graphs resident in a
// registry, runs any registered kernel under any frameworks.Profile
// through a bounded job scheduler, and caches results exactly. It is the
// topmost layer of the system — everything below it (frameworks,
// analytics, engine, core, memsim) is reached only through
// frameworks.Profile entry points. See DESIGN.md "Serving layer" and
// "Streaming updates & incremental kernels".
//
// # Charging contract
//
// The serving layer itself charges nothing: every job runs on a FRESH
// memsim.Machine built from the server's machine config, so concurrent
// jobs share no simulator state and each result is a pure function of
// (graph epoch, request, machine config). Registry operations — loading,
// sealing, applying update batches — model graph construction, which the
// paper excludes from all reported numbers, and are likewise uncharged.
//
// # Determinism guarantees
//
// Kernel execution is byte-identically deterministic (see internal/engine
// and DESIGN.md "Concurrency model"), and the result cache exploits that:
// its key covers every input of an execution — graph name AND epoch, app,
// the profile's engine/runtime configuration, resolved parameters, the
// machine, and the incremental opt-in — so equal keys imply byte-identical
// results, and a cache hit provably returns the bytes a re-run would
// produce. Graphs are sealed (weights, transpose, compressed encodings
// materialized) before becoming visible, making every concurrent runtime
// over them read-only; mutation happens only through batched edge updates
// (Registry.ApplyUpdates), each of which swaps in a NEW immutable Epoch
// handle and invalidates exactly that graph's cache entries. A job
// resolves its graph once (Registry.Resolve) and reads everything off that
// one handle, so jobs racing an update either run on the immutable old
// epoch under the old key or see the new epoch, never a stale mix.
// Incremental jobs (JobRequest.Incremental) are seeded from retained
// prior-epoch artifacts and compute outputs bitwise identical to a full
// recompute;
// their charging metadata reflects the incremental path, which is why
// they live in their own cache-key namespace.
package server
