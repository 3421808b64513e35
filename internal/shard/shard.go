// Package shard executes round-based kernels over a partitioned graph as
// scatter/gather BSP supersteps across N in-process shard workers. Each
// worker owns one contiguous vertex range of a graph.Partition, its own
// memsim.Machine, and its own core.Runtime (raw or compressed backend)
// over the shard-local CSR; a superstep coordinator runs the workers
// concurrently, has each owner apply the claims folded on its own range,
// and folds compute and communication into the simulated clocks.
//
// A kernel is a declaration, not a loop. The superstep sequence — frontier
// scan, charge, claim folded where it lands, cross-shard count, endRound,
// owner apply — exists once per driver:
// scatter (bfs, sssp, cc, kcore, bc forward) and its claim-free counterpart
// gather (pr, bc backward). A scatterProgram names a fold (min | sum),
// the directions walked, the label touches per edge, an emit judged against
// round-start state and an owner apply; a gatherProgram names a row fold
// and an owner-only done. apps.go holds the table. Both drivers read each
// walked row of an active vertex once, with core.AdjView.ReadRow, charge
// its visit with AdjView.ChargeVisit, and hand the program the graph's own
// row, read-only: a program callback runs once per (active vertex, walked
// direction), never per edge. Adjacency is walked only through
// core.AdjView, and the frontier and claimed sets through engine.Dense.
//
// No barrier work runs on the coordinator goroutine but the clock fold and
// the join of the owners' activations. A claim is never stored or routed:
// the emitting thread folds it at once into its destination's accumulator,
// and the worker counts its cross-shard bytes on its own goroutine once its
// region ends. After endRound every worker, as the owner of its range,
// walks the claimed destinations of the range in ascending order, takes
// each one's folded operand and applies it. The next frontier is the
// owners' activations joined in shard order — ascending, since ranges
// are. A superstep's barrier costs O(claims + shards) plus one bit-vector
// scan of |V|/64 words, whatever the thread count.
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
//     frontier bit-vector) and WRITE per-thread scratch, owner-only slices
//     of per-vertex arrays, and the claim accumulators;
//   - claims are judged against round-start snapshots, so the claim SET is
//     a pure function of the round's input, not of interleaving;
//   - claims land in the accumulators only through commutative,
//     associative atomic folds (add for sums, max of the complement for
//     minima), so once the region ends every destination's folded operand,
//     like the set of claimed destinations, is a pure function of the claim
//     multiset — never of which thread or shard emitted a claim, or when;
//   - apply reads the accumulators only after the barrier, on the
//     goroutine of the destination's owner, in destination order, and
//     writes only that destination's slots.
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
	"sync/atomic"

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

	// The scatter barrier's fold targets over the global ID space: the set
	// of destinations claimed this superstep and each one's folded operand.
	// Threads of every worker fold into them atomically as they emit; each
	// owner takes its range back to empty and the identity (see fold).
	seen *engine.Dense
	acc  []atomic.Uint64

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
	lo, hi graph.Node
	m      *memsim.Machine
	rt     *core.Runtime
	views  [2]core.AdjView // out, in
	labels *memsim.Array

	// Per-thread state of a superstep region, indexed by virtual thread ID
	// and reused across supersteps: the node list a program appends a row's
	// claimed destinations (scatter) or contributing neighbors (gather) to,
	// the claims' operands (folded as soon as emit returns), the foreign
	// destinations the thread marked first, and the remote-read counter.
	nodes   [][]graph.Node
	val     [][]uint64
	foreign [][]graph.Node
	remote  []int64

	// marks is the set of destinations outside the worker's range that its
	// claims ship to other shards this superstep; it is empty between
	// supersteps.
	marks *engine.Dense
	// next holds the destinations on this worker's range that its owner
	// phase activated: its share of the next frontier.
	next []graph.Node
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
	e := &Engine{cfg: cfg, part: part, seen: engine.NewDense(int(n)), acc: make([]atomic.Uint64, n),
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
		w := &worker{lo: r.Lo, hi: r.Hi, m: m, rt: rt, views: [2]core.AdjView{rt.OutView(), rt.InView()}}
		w.labels = rt.ScratchArray("shard.labels", max(n, 1), 8)
		w.labels.Warm()
		threads := rt.RegionThreads()
		w.nodes, w.val, w.foreign = make([][]graph.Node, threads), make([][]uint64, threads), make([][]graph.Node, threads)
		w.remote = make([]int64, threads)
		w.marks = engine.NewDense(int(n))
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
// destination fold by min or sum, and each shard applies the folded claims
// on its own range between supersteps.
type scatterProgram struct {
	scan
	// sum folds a destination's operands by addition; otherwise by minimum.
	sum bool
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
	// apply lands one folded claim and reports whether d joins the next
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
// every simulated clock depends on: per walked direction its visit (the
// offset pair then the block, ChargeVisit), then the label accesses, then
// the operator applications.
func (w *worker) charge(t *memsim.Thread, lv graph.Node, s *scan, write bool, extraOps int) {
	deg := int64(0)
	for i := range w.views {
		if !s.walk[i] {
			continue
		}
		av := &w.views[i]
		av.ChargeVisit(t, lv, s.weighted && i == 0)
		deg += av.Adj.Degree(lv)
	}
	w.labels.RandomN(t, s.touches*deg, write)
	t.Op(int(deg) + extraOps)
}

// scatter runs one superstep of p over frontier and returns the next
// frontier (reusing frontier's storage). Workers charge and walk their
// share of the frontier, decoding each walked row once, and fold every
// claim of a row into the engine's accumulators as soon as emit returns
// (see fold); a claim outside the worker's range is also marked once per
// worker, and the worker counts 8 cross-shard bytes per destination it
// marked on its own goroutine. The round is folded into the clocks, every
// owner takes and applies the claims on its own range in destination
// order, and the owners' activations are joined in shard order into the
// next frontier.
func (e *Engine) scatter(p *scatterProgram, frontier []graph.Node) []graph.Node {
	active := e.activate(frontier)
	compute := e.superstep(func(w *worker, t *memsim.Thread, lo, hi graph.Node) {
		if p.streamLabels {
			w.labels.ReadRange(t, int64(lo), int64(hi))
		}
		dst, val, foreign := w.nodes[t.ID], w.val[t.ID], w.foreign[t.ID]
		b := w.rt.RowBuf(t)
		active.ForEachInRange(lo, hi, func(v graph.Node) {
			lv := v - w.lo
			w.charge(t, lv, &p.scan, true, 0)
			for i := range w.views {
				if !p.walk[i] {
					continue
				}
				row, wts := w.views[i].ReadRow(b, lv, p.weighted && i == 0)
				dst, val = p.emit(v, row, wts, dst[:0], val[:0])
				for k, d := range dst {
					e.fold(d, val[k], p.sum)
					if (d < w.lo || d >= w.hi) && w.marks.Set(d) {
						foreign = append(foreign, d)
					}
				}
			}
		})
		w.nodes[t.ID], w.val[t.ID], w.foreign[t.ID] = dst, val, foreign
	}, func(i int, w *worker) {
		// 8 bytes per distinct destination w ships to another shard,
		// however many of its threads claimed it.
		e.send[i] = 0
		for t, foreign := range w.foreign {
			e.send[i] += 8 * int64(len(foreign))
			for _, d := range foreign {
				w.marks.Unset(d)
			}
			w.foreign[t] = foreign[:0]
		}
	})
	e.deactivate(frontier)
	e.endRound(compute, e.send)
	e.eachWorker(func(_ int, w *worker) {
		next := w.next[:0]
		e.seen.ForEachInRange(w.lo, w.hi, func(d graph.Node) {
			if p.apply(d, e.take(d, p.sum)) {
				next = append(next, d)
			}
		})
		w.next = next
	})
	next := frontier[:0]
	for _, w := range e.workers {
		next = append(next, w.next...)
	}
	return next
}

// fold lands the claim (d, val) in d's accumulator and marks d claimed. A
// resting accumulator holds 0, the identity of both folds: a sum adds val,
// and a min keeps the largest complement ^val, so no claim has to
// initialize one. Both folds are commutative atomic updates, so the folded
// value is a pure function of the claim multiset, whichever threads and
// shards emitted it in whatever order.
func (e *Engine) fold(d graph.Node, val uint64, sum bool) {
	a := &e.acc[d]
	if sum {
		a.Add(val)
	} else {
		for c := ^val; ; {
			old := a.Load()
			if old >= c || a.CompareAndSwap(old, c) {
				break
			}
		}
	}
	e.seen.Set(d)
}

// take returns d's folded operand, puts its accumulator back at the
// identity and unmarks d.
func (e *Engine) take(d graph.Node, sum bool) uint64 {
	e.seen.Unset(d)
	x := e.acc[d].Swap(0)
	if !sum {
		x = ^x
	}
	return x
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
		from := w.nodes[t.ID]
		b := w.rt.RowBuf(t)
		active.ForEachInRange(lo, hi, func(v graph.Node) {
			w.charge(t, v-w.lo, &p.scan, false, finalizeOps)
			sum := 0.0
			for i := range w.views {
				if !p.walk[i] {
					continue
				}
				row, _ := w.views[i].ReadRow(b, v-w.lo, false)
				sum, from = p.row(v, row, sum, from[:0])
				for _, u := range from {
					if u < w.lo || u >= w.hi {
						w.remote[t.ID]++
					}
				}
			}
			p.done(v, sum)
		})
		w.nodes[t.ID] = from
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
