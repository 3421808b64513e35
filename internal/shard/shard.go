// Package shard executes round-based kernels over a partitioned graph as
// scatter/gather BSP supersteps across N in-process shard workers. Each
// worker owns one contiguous vertex range of a graph.Partition, its own
// memsim.Machine, and its own core.Runtime (raw or compressed backend)
// over the shard-local CSR; a superstep coordinator runs the workers
// concurrently, has each owner merge and apply the claims on its own range,
// and folds compute and communication into the simulated clocks.
//
// A kernel is a declaration, not a loop. The superstep sequence — frontier
// scan, charge, claim routed by owner, cross-shard count, endRound, owner
// merge, apply — exists once per driver:
// scatter (bfs, sssp, cc, kcore, bc forward) and its claim-free counterpart
// gather (pr, bc backward). A scatterProgram names a reduction (min | sum),
// the directions walked, the label touches per edge, an emit judged against
// round-start state and an owner apply; a gatherProgram names a row fold
// and an owner-only done. apps.go holds the table. Both drivers decode each
// walked block of an active vertex once, with Adjacency.Row, and hand the
// program the graph's own row, read-only: a program callback runs once per
// (active vertex, walked direction), never per edge. Adjacency is walked
// only through core.AdjView, the frontier through engine.Dense, and every
// owner's claim list goes through engine.MergeClaims, the same merge the
// single-machine engine's push rounds use.
//
// No barrier work runs on the coordinator goroutine but the clock fold and
// the join of the owners' lists. Each worker's threads route every claim
// into a buffer for the shard owning its destination, and the worker counts
// its cross-shard bytes on its own goroutine once its region ends. After
// endRound every worker, as the owner of its range, merges all sources'
// buffers for the range and applies the merged list in destination order.
// The next frontier is the owners' lists joined in shard order — ascending,
// since ranges are.
//
// The package absorbs internal/distsim, which modeled the paper's §6.3
// D-Galois cluster as a closed benchmark: the same vertex programs run
// here, but on a runtime a server can actually fan a request out over
// (frameworks.RunShardedOnOpts, pmemserved's JobRequest.Shards), and the
// cluster emulation (Table 4 / Figure 11) is now just a Config preset —
// Stampede2 hosts, Omni-Path interconnect, OEC/CVC policies.
//
// # Determinism contract
//
// Sharded outputs are bitwise identical across shard counts, GOMAXPROCS,
// and backends (the conformance suite locks all three axes). The design
// makes this structural rather than incidental:
//
//   - workers only READ shared round-start state (label arrays, the
//     frontier bit-vector) and WRITE per-thread claim buffers or
//     owner-only slices of per-vertex arrays — there is not a single
//     cross-thread atomic in the kernels;
//   - claims are judged against round-start snapshots, so the claim SET is
//     a pure function of the round's input, not of interleaving;
//   - each owner merges the claim buffers for its range (shard-index, then
//     thread-index order) into a sorted, per-destination-reduced list (min
//     for shortest-path reductions, sum for commutative adds) and applies
//     it in destination order; both reductions are commutative and
//     associative, so each owner's list is a pure function of the claim
//     multiset on its range, and owners share the merge scratch
//     (engine.MergeClaims' seen and acc) only at the disjoint destinations
//     they own.
//
// # Charging model
//
// Per-superstep compute is each worker's ParallelItems region on its own
// machine (static chunk ownership, so the charge is a pure function of the
// shard). Cross-shard traffic is 8 bytes per distinct destination a shard
// claims that another shard owns — the dirty-mirror volume a Gluon-style
// runtime would sync. The round's wall cost is
//
//	max_s(compute_s) + Interconnect.ExchangeNs(shards, max_s(bytes_s), policyFactor)
//
// and the communication term is also advanced onto every worker's machine
// (memsim.Machine.AdvanceWall), so per-shard simulated time includes the
// barriers it waited in.
package shard

import (
	"fmt"
	"math"
	"sync"

	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Policy selects the partitioning policy of the cluster emulation.
type Policy int

const (
	// OEC is an outgoing edge cut: shards own contiguous vertex blocks
	// balanced by out-edge count and hold all out-edges of their masters
	// (what graph.NewPartition builds).
	OEC Policy = iota
	// CVC is the Cartesian (2D) vertex cut used for large host counts;
	// the model applies its ~2/sqrt(shards) communication reduction as a
	// volume factor.
	CVC
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case OEC:
		return "oec"
	case CVC:
		return "cvc"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes one shard fleet. The shard count itself comes from the
// graph.Partition an Engine is built over.
type Config struct {
	// Threads is the virtual thread count per shard worker.
	Threads int
	// Machine is the per-shard machine configuration.
	Machine memsim.MachineConfig
	// Backend selects each worker's CSR storage backend.
	Backend core.Backend
	// Policy selects the partition policy's communication factor.
	Policy Policy
	// Net is the alpha-beta cost model for superstep exchanges.
	Net memsim.Interconnect
}

// ServingConfig models in-process shard workers inside one serving
// machine: shared-memory exchange costs, caller-chosen backend.
func ServingConfig(machine memsim.MachineConfig, threads int, backend core.Backend) Config {
	return Config{
		Threads: threads,
		Machine: machine,
		Backend: backend,
		Net:     memsim.ServingInterconnect(),
	}
}

// ClusterConfig models the Stampede2 cluster of the paper's §6.3
// comparison at the given host count, with the paper's partition
// recommendation (OEC at small scale, CVC at 256 hosts) and the shared
// capacity scale divisor.
func ClusterConfig(hosts int, scaleDiv int64) Config {
	p := OEC
	if hosts >= 128 {
		p = CVC
	}
	return Config{
		Threads: 48,
		Machine: memsim.Scaled(memsim.StampedeHost(), scaleDiv),
		Policy:  p,
		Net:     memsim.StampedeInterconnect(),
	}
}

// MinHosts returns the minimum number of hosts needed to hold a graph
// whose replicated footprint is bytes, given per-host memory (the paper's
// DM configuration: 5 hosts for clueweb12/uk14, 20 for wdc12).
func MinHosts(replicatedBytes int64, host memsim.MachineConfig) int {
	perHost := host.DRAMPerSocket * int64(host.Sockets)
	// Leave ~25% headroom for runtime structures, as a real run would.
	usable := perHost * 3 / 4
	h := int((replicatedBytes + usable - 1) / usable)
	if h < 1 {
		h = 1
	}
	return h
}

// Engine coordinates BSP supersteps over one partition's shard workers.
type Engine struct {
	cfg     Config
	part    *graph.Partition
	workers []*worker

	// Scratch of the owners' claim merges (engine.MergeClaims): the dedup
	// set and reduction accumulators over the global ID space, each owner
	// touching only its own range.
	seen *engine.Dense
	acc  []uint64

	// Per-superstep scratch, reused across supersteps: the active set a
	// superstep walks (cleared by its own vertices afterwards) and each
	// shard's compute time and cross-shard bytes.
	active  *engine.Dense
	compute []float64
	send    []int64

	wallNs  float64
	commNs  float64
	sendTot int64
	rounds  int
}

// worker is one shard: a vertex range, a machine, a runtime over the
// shard-local CSR (walked only through its adjacency views), and the
// replicated label array (masters plus proxies, as D-Galois/Gluon
// replicates).
type worker struct {
	id     int // shard index
	lo, hi graph.Node
	m      *memsim.Machine
	rt     *core.Runtime
	views  [2]core.AdjView // out, in
	labels *memsim.Array

	// Per-thread state of a superstep region, indexed by virtual thread ID
	// and reused across supersteps: the claim buffers, one per owner shard
	// of the destinations (out[t][o]), the remote-read counter, and the
	// gather driver's list of contributing neighbors.
	out    [][]claims
	remote []int64
	from   [][]graph.Node

	// marks is a bitset over the global ID space in which the worker
	// counts the distinct destinations its claims ship to other shards; it
	// is empty between supersteps.
	marks []uint64
	// The barrier's owner phase, for the claims on this worker's range:
	// every source thread's buffer for the range (inD/inV, in shard then
	// thread order) and the merged, applied list (own).
	inD [][]graph.Node
	inV [][]uint64
	own claims
}

// claims is a claim list: destinations and their reduction operands, in
// parallel.
type claims struct {
	dst []graph.Node
	val []uint64
}

// New builds the shard fleet over a partition. The partition's source
// graph must already hold whatever the kernels will need (weights for
// sssp, the transpose for cc/pr/kcore): shard-local graphs alias the
// source arrays and never seal their own.
func New(part *graph.Partition, cfg Config) (*Engine, error) {
	if part == nil || part.Shards() == 0 {
		return nil, fmt.Errorf("shard: empty partition")
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	n := int64(part.NumNodes())
	e := &Engine{cfg: cfg, part: part, seen: engine.NewDense(int(n)), acc: make([]uint64, n),
		active: engine.NewDense(int(n))}
	for i := 0; i < part.Shards(); i++ {
		local := part.Local(i)
		opts := core.GaloisDefaults(cfg.Threads)
		opts.Weighted = local.HasWeights()
		opts.BothDirections = local.HasIn()
		opts.Backend = cfg.Backend
		m := memsim.NewMachine(cfg.Machine)
		rt, err := core.New(m, local, opts)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r := part.RangeOf(i)
		w := &worker{id: i, lo: r.Lo, hi: r.Hi, m: m, rt: rt, views: [2]core.AdjView{rt.OutView(), rt.InView()}}
		w.labels = rt.ScratchArray("shard.labels", max(n, 1), 8)
		w.labels.Warm()
		threads := rt.RegionThreads()
		w.out = make([][]claims, threads)
		for t := range w.out {
			w.out[t] = make([]claims, part.Shards())
		}
		w.remote = make([]int64, threads)
		w.from = make([][]graph.Node, threads)
		w.marks = make([]uint64, (n+63)/64)
		e.workers = append(e.workers, w)
	}
	shards := len(e.workers)
	e.compute, e.send = make([]float64, shards), make([]int64, shards)
	return e, nil
}

// Close releases every worker's runtime and arrays.
func (e *Engine) Close() {
	for _, w := range e.workers {
		if w.rt != nil {
			w.rt.Close()
		}
	}
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.workers) }

// Owner returns the shard owning v's master.
func (e *Engine) Owner(v graph.Node) int { return e.part.Owner(v) }

// WallSeconds returns the simulated sharded execution time.
func (e *Engine) WallSeconds() float64 { return e.wallNs / 1e9 }

// CommSeconds returns the portion of wall time spent in superstep
// exchanges.
func (e *Engine) CommSeconds() float64 { return e.commNs / 1e9 }

// BytesSent returns total cross-shard frontier bytes exchanged.
func (e *Engine) BytesSent() int64 { return e.sendTot }

// Rounds returns the number of BSP supersteps executed.
func (e *Engine) Rounds() int { return e.rounds }

// PerShardSeconds returns each worker machine's simulated wall time: its
// own compute plus the exchange time advanced onto it at every barrier.
func (e *Engine) PerShardSeconds() []float64 {
	out := make([]float64, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.m.WallSeconds()
	}
	return out
}

// resetClock zeroes the engine's clocks (between apps).
func (e *Engine) resetClock() {
	e.wallNs, e.commNs, e.sendTot, e.rounds = 0, 0, 0, 0
	for _, w := range e.workers {
		w.m.ResetClock()
	}
}

// commFactor scales per-shard communication volume by partition policy.
func (e *Engine) commFactor() float64 {
	if e.cfg.Policy == CVC && e.Shards() > 1 {
		return 2.0 / math.Floor(math.Sqrt(float64(e.Shards())))
	}
	return 1.0
}

// superstep runs fn concurrently on every worker over its owned range
// (global vertex bounds, statically chunked by the worker's runtime), then
// after, if not nil, on the worker's goroutine, and returns per-shard
// compute nanoseconds (e.compute, valid until the next superstep). Workers
// share no mutable state during the region, so running them on real
// goroutines is race-free and the per-shard charges stay pure functions of
// each shard.
func (e *Engine) superstep(fn func(w *worker, t *memsim.Thread, lo, hi graph.Node), after func(i int, w *worker)) []float64 {
	compute := e.compute
	e.eachWorker(func(i int, w *worker) {
		stats := w.rt.ParallelItems(int64(w.hi-w.lo), func(t *memsim.Thread, lo, hi int64) {
			fn(w, t, w.lo+graph.Node(lo), w.lo+graph.Node(hi))
		})
		compute[i] = stats.ElapsedNs
		if after != nil {
			after(i, w)
		}
	})
	return compute
}

// eachWorker runs fn concurrently, one goroutine per worker, and waits.
func (e *Engine) eachWorker(fn func(i int, w *worker)) {
	var wg sync.WaitGroup
	for i, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, w)
		}()
	}
	wg.Wait()
}

// endRound folds one superstep into the clocks: the slowest shard's
// compute plus the exchange cost of the bottleneck shard's volume. The
// exchange time is also advanced onto every worker's machine.
func (e *Engine) endRound(computeNs []float64, sendBytes []int64) {
	e.rounds++
	maxCompute := 0.0
	for _, c := range computeNs {
		if c > maxCompute {
			maxCompute = c
		}
	}
	maxBytes := int64(0)
	for _, b := range sendBytes {
		e.sendTot += b
		if b > maxBytes {
			maxBytes = b
		}
	}
	comm := e.cfg.Net.ExchangeNs(e.Shards(), maxBytes, e.commFactor())
	e.commNs += comm
	e.wallNs += maxCompute + comm
	for _, w := range e.workers {
		w.m.AdvanceWall(comm)
	}
}

// Reductions a scatterProgram folds duplicate claims with. Both are
// commutative and associative, so a merged claim list is a pure function of
// the claim multiset — never of which thread or shard held a claim.
func reduceMin(a, b uint64) uint64 { return min(a, b) }
func reduceSum(a, b uint64) uint64 { return a + b }

// scan is the part of a program both drivers share: which blocks of an
// active vertex are walked and what the walk charges.
type scan struct {
	// walk selects the directions, indexed like worker.views (out, in).
	walk [2]bool
	// weighted charges out-edge weights with the scan and hands them to
	// the program.
	weighted bool
	// touches is the replicated-label accesses charged per visited edge.
	touches int64
}

// The direction sets a scan can walk.
var (
	outEdges  = [2]bool{true, false}
	inEdges   = [2]bool{false, true}
	bothEdges = [2]bool{true, true}
)

// scatterProgram declares a push-style kernel: active vertices scatter
// claims (destination, operand) along their rows, claims for one
// destination fold through reduce, and each shard applies the merged claims
// on its own range between supersteps.
type scatterProgram struct {
	scan
	// reduce is reduceMin or reduceSum.
	reduce func(a, b uint64) uint64
	// streamLabels streams each chunk's label range before its vertices
	// scan (a per-master test such as kcore's degree check).
	streamLabels bool
	// emit judges one walked row of v on a worker thread and appends a
	// claim (d, operand) to dst/val for every neighbor d it claims, in row
	// order. wts is the row's out-edge weights (wts[k] belongs to row[k])
	// when the scan is weighted and the row is an out-row, else nil. Both
	// may be the graph's own storage, so emit must not write them. It
	// may read only round-start state, so the claim SET is a pure function
	// of the round's input, not of interleaving.
	emit func(v graph.Node, row []graph.Node, wts []uint32, dst []graph.Node, val []uint64) ([]graph.Node, []uint64)
	// apply lands one merged claim and reports whether d joins the next
	// frontier. It runs on the goroutine of the shard owning d, in
	// destination order within that shard's range, concurrently with the
	// other owners, so it may write only d's own slots of shared state.
	apply func(d graph.Node, val uint64) bool
}

// gatherProgram declares a pull-style kernel: each active master folds its
// walked rows into one sum (in neighbor order, so the float total is a pure
// function of the graph) and done publishes the sum with owner-only writes.
type gatherProgram struct {
	scan
	// everyMaster marks a topology-driven program: every master recomputes
	// every round, so each chunk streams its label range (one op per
	// master), finalization costs one more op per master, and every
	// master's fresh value is broadcast. Frontier-driven programs ship one
	// entry per remote neighbor that contributed instead.
	everyMaster bool
	// row adds the contributions of one walked row of v to sum, in row
	// order, reading state the superstep does not write. row may be the
	// graph's own storage, so row must not write it. A frontier-driven
	// program appends the neighbors that contributed to from (the driver's
	// per-thread scratch, handed over empty), which the driver counts
	// remote entries of; an everyMaster program appends none. It returns
	// the new sum and from.
	row func(v graph.Node, row []graph.Node, sum float64, from []graph.Node) (float64, []graph.Node)
	// done publishes v's gathered sum.
	done func(v graph.Node, sum float64)
}

// charge charges the scan of active local vertex lv to t in the fixed order
// every simulated clock depends on: per walked direction the offset pair
// then the block, then the label accesses, then the operator applications.
func (w *worker) charge(t *memsim.Thread, lv graph.Node, s *scan, write bool, extraOps int) {
	deg := int64(0)
	for i := range w.views {
		if !s.walk[i] {
			continue
		}
		av := &w.views[i]
		av.Offsets.ReadN(t, int64(lv), 2)
		av.ChargeScan(t, lv, s.weighted && i == 0)
		deg += av.Adj.Degree(lv)
	}
	w.labels.RandomN(t, s.touches*deg, write)
	t.Op(int(deg) + extraOps)
}

// scatter runs one superstep of p over frontier and returns the next
// frontier (reusing frontier's storage). Workers charge and walk their
// share of the frontier, decoding each walked row once, and route its claims
// per thread into the buffer of the shard owning each destination; then
// each worker counts its cross-shard bytes (8 per distinct destination it
// claims on another shard) on its own goroutine. The round is folded into
// the clocks, every worker merges and applies the claims on its own range
// (see own), and the owners' lists are joined in shard order into the next
// frontier.
func (e *Engine) scatter(p *scatterProgram, frontier []graph.Node) []graph.Node {
	active := e.activate(frontier)
	compute := e.superstep(func(w *worker, t *memsim.Thread, lo, hi graph.Node) {
		if p.streamLabels {
			w.labels.ReadRange(t, int64(lo), int64(hi))
		}
		out := w.out[t.ID]
		local := &out[w.id]
		active.ForEachInRange(lo, hi, func(v graph.Node) {
			lv := v - w.lo
			w.charge(t, lv, &p.scan, true, 0)
			for i := range w.views {
				if !p.walk[i] {
					continue
				}
				// A shard-local graph is a plain CSR, so every row is
				// raw: the graph's own storage, needing no scratch.
				var row []graph.Node
				var wts []uint32
				if p.weighted && i == 0 {
					row, wts, _ = w.rt.OutRow(nil, nil, lv)
				} else {
					row, _ = w.views[i].Adj.Row(nil, lv)
				}
				// emit appends to the local buffer; claims owned elsewhere
				// move to their owner's buffer, local ones close up.
				k := len(local.dst)
				dst, val := p.emit(v, row, wts, local.dst, local.val)
				for j := k; j < len(dst); j++ {
					if o := e.part.Owner(dst[j]); o != w.id {
						c := &out[o]
						c.dst, c.val = append(c.dst, dst[j]), append(c.val, val[j])
					} else {
						dst[k], val[k] = dst[j], val[j]
						k++
					}
				}
				local.dst, local.val = dst[:k], val[:k]
			}
		})
	}, func(i int, w *worker) { e.send[i] = w.crossBytes() })
	e.deactivate(frontier)
	e.endRound(compute, e.send)
	e.eachWorker(func(o int, w *worker) { e.own(p, o, w) })
	next := frontier[:0]
	for _, w := range e.workers {
		next = append(next, w.own.dst...)
	}
	return next
}

// crossBytes returns the bytes w's claims ship to other shards: 8 per
// distinct destination outside its range, however many of its threads
// claimed it. It marks each such destination once in w.marks, then clears
// the marks by walking the same claims again.
func (w *worker) crossBytes() int64 {
	n := int64(0)
	for _, out := range w.out {
		for o := range out {
			if o == w.id {
				continue
			}
			for _, d := range out[o].dst {
				word, bit := &w.marks[d>>6], uint64(1)<<(d&63)
				if *word&bit == 0 {
					*word |= bit
					n++
				}
			}
		}
	}
	for _, out := range w.out {
		for o := range out {
			if o == w.id {
				continue
			}
			for _, d := range out[o].dst {
				w.marks[d>>6] = 0
			}
		}
	}
	return 8 * n
}

// own is the barrier's owner phase of worker o: it merges every source
// shard's claims on o's range (shard-index, then thread-index order, through
// engine.MergeClaims) and applies the merged list in destination order,
// keeping in w.own.dst the destinations that join the next frontier. Owners
// run concurrently: each reads and truncates only its own column
// (out[t][o]) of the sources' buffers and touches the shared seen/acc only
// inside its range.
func (e *Engine) own(p *scatterProgram, o int, w *worker) {
	w.inD, w.inV = w.inD[:0], w.inV[:0]
	for _, src := range e.workers {
		for t := range src.out {
			c := &src.out[t][o]
			w.inD, w.inV = append(w.inD, c.dst), append(w.inV, c.val)
			c.dst, c.val = c.dst[:0], c.val[:0]
		}
	}
	own := &w.own
	own.dst, own.val = engine.MergeClaims(e.seen, w.inD, w.inV, e.acc, p.reduce, own.dst, own.val)
	next := own.dst[:0]
	for i, d := range own.dst {
		if p.apply(d, own.val[i]) {
			next = append(next, d)
		}
	}
	own.dst = next
}

// activate returns the engine's reusable active set holding exactly vs;
// deactivate(vs) empties it again in O(len(vs)) once the superstep is over.
func (e *Engine) activate(vs []graph.Node) *engine.Dense {
	for _, v := range vs {
		e.active.Set(v)
	}
	return e.active
}

func (e *Engine) deactivate(vs []graph.Node) {
	for _, v := range vs {
		e.active.Unset(v)
	}
}

// gather runs one superstep of p over the active masters and folds it into
// the clocks. Nothing is merged: every write is owner-only.
func (e *Engine) gather(p *gatherProgram, active *engine.Dense) {
	compute := e.superstep(func(w *worker, t *memsim.Thread, lo, hi graph.Node) {
		finalizeOps := 0
		if p.everyMaster {
			w.labels.ReadRange(t, int64(lo), int64(hi))
			t.Op(int(hi - lo))
			finalizeOps = 1
		}
		from := w.from[t.ID]
		active.ForEachInRange(lo, hi, func(v graph.Node) {
			w.charge(t, v-w.lo, &p.scan, false, finalizeOps)
			sum := 0.0
			for i := range w.views {
				if !p.walk[i] {
					continue
				}
				row, _ := w.views[i].Adj.Row(nil, v-w.lo)
				sum, from = p.row(v, row, sum, from[:0])
				for _, u := range from {
					if u < w.lo || u >= w.hi {
						w.remote[t.ID]++
					}
				}
			}
			p.done(v, sum)
		})
		w.from[t.ID] = from
	}, nil)
	send := e.send
	for i, w := range e.workers {
		send[i] = 0
		for k, n := range w.remote {
			send[i] += 8 * n
			w.remote[k] = 0
		}
		if p.everyMaster && e.Shards() > 1 {
			// Every master's value ships (a lone shard's never leave the
			// machine).
			send[i] = 8 * int64(w.hi-w.lo)
		}
	}
	e.endRound(compute, send)
}
