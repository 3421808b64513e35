package engine

import (
	"slices"
	"sync/atomic"

	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Rep selects the frontier representation policy.
type Rep int

const (
	// RepAuto converts between sparse and dense at the DenseFrac
	// threshold (the Ligra hybrid).
	RepAuto Rep = iota
	// RepSparse keeps every frontier an explicit vertex list (Galois).
	RepSparse
	// RepDense keeps every frontier a |V| bit-vector (GAP/GBBS/GraphIt).
	RepDense
)

// Dir selects the traversal direction policy.
type Dir int

const (
	// DirAuto is direction-optimizing: pull when the frontier's edge
	// count crosses the PullFrac threshold and the operator provides a
	// pull form, push otherwise (Beamer-style).
	DirAuto Dir = iota
	// DirPush always scatters along out-edges.
	DirPush
	// DirPull always gathers along in-edges.
	DirPull
)

// defaultFrac is the Ligra |E|/20 threshold shared by the representation
// and direction switches.
const defaultFrac = 20

// Config parameterizes the engine for one kernel execution. Framework
// profiles are expressed as Configs (dense-only, push-only, thresholds)
// rather than as hand-picked kernel variants.
type Config struct {
	Rep Rep
	Dir Dir
	// DenseFrac: a frontier converts to dense when |frontier| plus its
	// out-edge count exceeds |E|/DenseFrac, and back below it. 0 means
	// the Ligra default of 20.
	DenseFrac int64
	// PullFrac is the same threshold for the push→pull direction switch.
	// 0 means 20.
	PullFrac int64
}

// Access names one array a kernel's operator touches at random, so the
// engine can charge it in per-chunk batches.
type Access struct {
	Arr   *memsim.Array
	Write bool
}

// RoundStat records one EdgeMap round for the kernel's Result trace. The
// json tags define the stable wire format of serialized traces (see
// analytics.MarshalResult); do not rename them without a version bump.
type RoundStat struct {
	Round    int                `json:"round"`
	Frontier int64              `json:"frontier"` // active vertices entering the round
	Edges    int64              `json:"edges"`    // their total out-degree
	Dense    bool               `json:"dense"`    // representation iterated this round
	Pull     bool               `json:"pull"`     // direction used
	Stats    memsim.RegionStats `json:"stats"`
}

// Engine binds a runtime to a Config and owns the simulated frontier
// storage (bit-vectors and worklist array) shared by every round.
type Engine struct {
	R   *core.Runtime
	cfg Config

	// out/in are the runtime's adjacency views: all neighborhood
	// iteration goes through their ReadRow (the graph's own CSR slices
	// on either backend, handed to programs as slices; an overlay-touched
	// row merged into the thread's core.RowBuf) and all edge-traffic
	// charging through their arrays, so the engine is storage-backend
	// agnostic.
	out, in core.AdjView

	bits     *memsim.Array // current dense frontier bits
	nextBits *memsim.Array // next-frontier activation scatter target
	wl       *memsim.Array // sparse worklist storage

	// dedup is the reusable activation set the sequential claim merge
	// deduplicates against. It is cleared in O(|activated|) after each
	// round (Unset per activated vertex) so thousands of tiny-frontier
	// rounds on a high-diameter graph never pay an O(|V|) zeroing.
	dedup *Dense

	// claims holds one activation buffer per virtual thread, indexed by
	// Thread.ID. Threads append claims race-free during a push round; the
	// engine drains the buffers (retaining capacity) at the merge.
	claims [][]graph.Node
	// merged is the claim merge's output scratch (MergeClaims' out),
	// reused across rounds.
	merged []graph.Node

	// progs is the running round's row programs, kept here so a round
	// does not allocate them.
	progs progs

	rounds int
	trace  []RoundStat
}

// addStats folds a conversion pass's region into a round's stats.
func addStats(dst *memsim.RegionStats, src memsim.RegionStats) {
	dst.ElapsedNs += src.ElapsedNs
	dst.Counters.Add(src.Counters)
}

// New builds an engine over r. The frontier scratch arrays are allocated
// through the runtime and freed by its Close.
func New(r *core.Runtime, cfg Config) *Engine {
	if cfg.DenseFrac <= 0 {
		cfg.DenseFrac = defaultFrac
	}
	if cfg.PullFrac <= 0 {
		cfg.PullFrac = defaultFrac
	}
	n := int64(r.G.NumNodes())
	words := (n + 63) / 64
	if words < 1 {
		words = 1
	}
	if n < 1 {
		n = 1
	}
	return &Engine{
		R:        r,
		cfg:      cfg,
		out:      r.OutView(),
		in:       r.InView(),
		bits:     r.ScratchArray("engine.frontier.bits", words, 8),
		nextBits: r.ScratchArray("engine.next.bits", words, 8),
		wl:       r.ScratchArray("engine.wl", n, 4),
		claims:   make([][]graph.Node, r.RegionThreads()),
	}
}

// Config returns the engine's configuration (with defaults filled in).
func (e *Engine) Config() Config { return e.cfg }

// Rounds returns the number of EdgeMap rounds executed so far.
func (e *Engine) Rounds() int { return e.rounds }

// Trace returns the per-round frontier/direction/RegionStats record.
func (e *Engine) Trace() []RoundStat { return e.trace }

// CanPull reports whether pull traversal is possible (transpose present).
func (e *Engine) CanPull() bool { return e.in.Valid() }

func (e *Engine) wantDense(count, outEdges int64) bool {
	switch e.cfg.Rep {
	case RepSparse:
		return false
	case RepDense:
		return true
	default:
		return count+outEdges > e.R.NumEdges()/e.cfg.DenseFrac
	}
}

// NewFrontier builds a frontier from explicit seed vertices, in the
// representation the config prescribes. Seeding is not charged (it models
// kernel setup outside the traversal).
func (e *Engine) NewFrontier(vs ...graph.Node) *Frontier {
	n := e.R.G.NumNodes()
	f := &Frontier{
		n:        n,
		count:    int64(len(vs)),
		outEdges: sumOutDegrees(e.R, vs),
	}
	if e.wantDense(f.count, f.outEdges) {
		f.isDense = true
		f.dense = DenseFromVertices(n, vs)
	} else {
		f.sparse = append([]graph.Node(nil), vs...)
	}
	return f
}

// SparseFrontier wraps an existing vertex list as an explicitly sparse
// frontier regardless of policy (e.g. the per-level lists of Brandes'
// backward sweep, which are replayed exactly as recorded).
func (e *Engine) SparseFrontier(vs []graph.Node) *Frontier {
	return &Frontier{
		n:        e.R.G.NumNodes(),
		sparse:   vs,
		count:    int64(len(vs)),
		outEdges: sumOutDegrees(e.R, vs),
	}
}

// FullFrontier activates every vertex (the initial frontier of
// topology-driven kernels).
func (e *Engine) FullFrontier() *Frontier {
	n := e.R.G.NumNodes()
	f := &Frontier{n: n, count: int64(n), outEdges: e.R.NumEdges()}
	if e.wantDense(f.count, f.outEdges) {
		f.isDense = true
		f.dense = FullDense(n)
	} else {
		vs := make([]graph.Node, n)
		for i := range vs {
			vs[i] = graph.Node(i)
		}
		f.sparse = vs
	}
	return f
}

// PushRow is a push row program: it judges u's whole row at once, row[k]
// being u's k-th neighbor and wts[k] that edge's weight (wts is nil unless
// the round is Weighted), and appends every neighbor it claims to claims,
// returning the extended slice. It is the shape of internal/shard's emit.
// row and wts may be the graph's own storage or a per-thread scratch copy
// of a merged overlay row: the program must neither modify nor retain them.
// Work fixed for the row (u's own value) is done once, before the loop.
type PushRow func(u graph.Node, row []graph.Node, wts []uint32, claims []graph.Node) []graph.Node

// PullRow is a pull row program: it scans v's row in order (row and wts as
// for PushRow) until it may stop, and reports whether v became active,
// whether it stopped early, and how many edges it scanned — len(row) unless
// it stopped. An early-exit pull round charges exactly that prefix. A
// reduction over the row folds it in a register and publishes once.
type PullRow func(v graph.Node, row []graph.Node, wts []uint32) (active, stopped bool, scanned int)

// EdgeMapArgs declares one edge-operator application.
type EdgeMapArgs struct {
	// PushRow is the push program, run once per active vertex u and
	// direction scanned, on u's out-row (and with Symmetric, its in-row).
	// The engine activates every vertex it claims in the next frontier,
	// deduped and ID-sorted at the round barrier. For deterministic
	// simulation the SET of claimed vertices must not depend on thread
	// interleaving — which thread claims, how often, and in what order all
	// wash out in the merge. CAS transitions (one winner per vertex) and
	// min-CAS improvements over round-start snapshots both qualify;
	// reading mutable shared state into the claim decision does not.
	// Shared writes must themselves be commutative and idempotent (CAS
	// min-reductions, atomic adds).
	PushRow PushRow
	// PullRow is the pull program, run once per candidate vertex v on its
	// in-row (and with Symmetric, unless the in-row stopped, its out-row).
	// Early exits are charged as prefix scans via the runtime's
	// in-direction arrays.
	PullRow PullRow
	// Push and Pull are the per-edge forms of PushRow and PullRow, kept
	// for callers written against them: the engine runs each as a row
	// program that calls it once per edge with the edge's index ei in the
	// direction scanned. A field excludes its row form.
	Push func(u, d graph.Node, ei int64) bool
	Pull func(v, u graph.Node, ei int64) (active, stop bool)
	// PullCond gates which vertices scan in pull rounds (nil = all).
	// When nil the engine assumes whole-neighborhood scans and charges
	// edge reads in contiguous per-chunk blocks.
	PullCond func(v graph.Node) bool
	// Gather replaces the pull program for whole-neighborhood reductions:
	// a range program, run once per scheduler chunk [lo, hi) with the
	// in-rows (Rows.Row) of every vertex in it. A Gather round is a pull
	// round over every vertex that activates nothing (it returns an empty
	// frontier) and charges like a whole-row pull plus one operator
	// application per vertex. It excludes the push and pull programs,
	// PullCond and Symmetric.
	Gather func(lo, hi graph.Node, in Rows)
	// OnPullChunk runs once per scheduler chunk after its vertices are
	// processed, on the owning thread, for contention-free chunk
	// reductions: accumulate locally over [lo, hi), then publish into a
	// t.ID-indexed shard so the kernel can fold the shards in thread
	// order after the round (order-sensitive reductions such as
	// pagerank's float residual stay deterministic that way).
	OnPullChunk func(t *memsim.Thread, lo, hi graph.Node)
	// Symmetric also traverses the transpose in push mode and the
	// out-direction in pull mode: undirected propagation (cc, kcore).
	Symmetric bool
	// Weighted charges edge-weight reads alongside edge scans and hands
	// the programs each row's weights.
	Weighted bool
	// PerEdge are arrays randomly accessed once per visited edge (label
	// gathers and scatters), charged per chunk.
	PerEdge []Access
	// PullPerEdge overrides PerEdge for pull rounds, whose per-edge
	// access pattern usually differs from push (a gather of the
	// neighbor's current value instead of a scatter to the target's).
	// nil means pull rounds charge PerEdge; an empty non-nil slice
	// means pull rounds have no per-edge operator accesses (e.g. bfs,
	// whose pull only tests frontier bits already charged per shard).
	PullPerEdge []Access
	// PerVertex are arrays randomly accessed once per processed vertex.
	PerVertex []Access
	// PullSeqRead/PullSeqWrite are node arrays streamed across each
	// vertex shard of a pull round (e.g. the dist array the pull
	// condition consults).
	PullSeqRead  []*memsim.Array
	PullSeqWrite []*memsim.Array
}

// EdgeMap runs one round: it applies the operator to f's neighborhoods in
// the direction and representation the config selects, charges all
// traversal traffic, records a RoundStat, and returns the next frontier
// (auto-converted to the policy's representation).
func (e *Engine) EdgeMap(f *Frontier, args EdgeMapArgs) *Frontier {
	e.progs = e.programs(&args)
	p := &e.progs
	pull := false
	switch {
	case args.Gather != nil:
		pull = true
	case p.pullIn == nil || !e.CanPull():
		// push only
	case p.pushOut == nil, e.cfg.Dir == DirPull:
		pull = true
	case e.cfg.Dir == DirPush:
		// push only
	default:
		pull = f.count+f.outEdges > e.R.NumEdges()/e.cfg.PullFrac
	}

	e.rounds++
	rs := RoundStat{Round: e.rounds, Frontier: f.count, Edges: f.outEdges, Pull: pull}

	var next *Frontier
	switch {
	case pull:
		conv := e.toDense(f)
		rs.Dense = true
		next = e.pullRound(f, &args, p, &rs)
		addStats(&rs.Stats, conv)
		// Representation maintenance: pull rounds produce a dense
		// frontier natively; convert if policy wants sparse.
		if next.count > 0 && e.wantDense(next.count, next.outEdges) != next.isDense {
			e.convert(next, &rs)
		}
	case f.isDense:
		rs.Dense = true
		next = e.pushDense(f, &args, p, &rs)
	default:
		next = e.pushSparse(f, &args, p, &rs)
	}
	e.trace = append(e.trace, rs)
	return next
}

// MergeClaims is the one sorted-dedup claim merge: the barrier phase that
// turns claim buffers, one per virtual thread of a region, into an
// ID-sorted, duplicate-free destination list. It drains the buffers in
// index order (truncating them, capacity retained), deduplicates against
// seen, sorts the survivors, and clears seen again in O(|merged|), so
// thousands of tiny-frontier rounds on a high-diameter graph never pay an
// O(|V|) zeroing. seen must be empty on entry and span the destination ID
// space.
//
// Sorting makes the result independent of claim attribution — which buffer
// held a claim, how often, in what order — so operators whose claims race to
// a unique winner are as deterministic as snapshot-judged ones.
//
// The result is built in out's storage (truncated first; nil allocates), so
// a caller that passes its previous result back merges without allocating
// once its capacity suffices.
func MergeClaims(seen *Dense, dsts [][]graph.Node, out []graph.Node) []graph.Node {
	merged := out[:0]
	for i, buf := range dsts {
		for _, d := range buf {
			if seen.Set(d) {
				merged = append(merged, d)
			}
		}
		dsts[i] = buf[:0]
	}
	slices.Sort(merged)
	for _, d := range merged {
		seen.Unset(d)
	}
	return merged
}

// mergeClaims drains the per-thread claim buffers into the next frontier
// (sparse; callers convert per policy). The frontier's list is the engine's
// merge scratch until finishPush gives it its own storage or drops it.
func (e *Engine) mergeClaims() *Frontier {
	n := e.R.NumNodes()
	if e.dedup == nil {
		e.dedup = NewDense(n)
	}
	e.merged = MergeClaims(e.dedup, e.claims, e.merged)
	vs := e.merged
	return &Frontier{n: n, sparse: vs, count: int64(len(vs)), outEdges: sumOutDegrees(e.R, vs)}
}

// finishPush converts the merged claim frontier to the representation the
// policy prescribes and charges the frontier writes in a follow-up parallel
// region: worklist appends for a sparse next frontier, bit-vector scatters
// for a dense one (the charges the scan region no longer issues, since
// activation counts there would depend on claim attribution).
func (e *Engine) finishPush(next *Frontier, rs *RoundStat) *Frontier {
	if next.count == 0 {
		next.sparse = nil
		return next
	}
	if e.wantDense(next.count, next.outEdges) {
		next.dense = DenseFromVertices(next.n, next.sparse)
		next.isDense = true
		next.sparse = nil
		addStats(&rs.Stats, e.R.ParallelItems(next.count, func(t *memsim.Thread, lo, hi int64) {
			e.nextBits.RandomN(t, hi-lo, true)
		}))
	} else {
		// The caller owns a sparse frontier's list (kernels keep levels),
		// so it leaves the merge scratch as an exact-size copy.
		next.sparse = slices.Clone(next.sparse)
		addStats(&rs.Stats, e.R.ParallelItems(next.count, func(t *memsim.Thread, lo, hi int64) {
			e.wl.WriteRange(t, lo, hi)
		}))
	}
	return next
}

// pushSparse scatters from an explicit vertex list: the Galois sparse
// worklist round. Only the frontier's own vertices and edges are charged.
func (e *Engine) pushSparse(f *Frontier, args *EdgeMapArgs, p *progs, rs *RoundStat) *Frontier {
	stats := e.R.ParallelItems(int64(len(f.sparse)), func(t *memsim.Thread, lo, hi int64) {
		e.wl.ReadRange(t, lo, hi)
		var chunkEdges int64
		buf := e.claims[t.ID]
		for _, u := range f.sparse[lo:hi] {
			var k int64
			buf, k = e.scanPush(t, u, args, p, buf, true)
			chunkEdges += k
		}
		e.claims[t.ID] = buf
		e.chargePushChunk(t, args, hi-lo, chunkEdges, true)
	})
	rs.Stats = stats
	return e.finishPush(e.mergeClaims(), rs)
}

// pushDense scatters from the bit-vector representation: every round scans
// the whole frontier bit-vector and offsets array (the §5.2 dense-worklist
// penalty), visiting edges only for active vertices.
func (e *Engine) pushDense(f *Frontier, args *EdgeMapArgs, p *progs, rs *RoundStat) *Frontier {
	n := int64(f.n)
	stats := e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		if f.count < n {
			e.bits.ReadRange(t, int64(lo)/64, int64(hi)/64+1)
		}
		if f.count == n {
			// Full frontier: every edge in the shard is scanned, so
			// charge offsets and edges as contiguous blocks.
			e.out.ChargeBlock(t, lo, hi, args.Weighted)
			if args.Symmetric {
				e.in.ChargeBlock(t, lo, hi, args.Weighted)
			}
		} else {
			e.out.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
			if args.Symmetric {
				e.in.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
			}
		}
		var chunkVerts, chunkEdges int64
		buf := e.claims[t.ID]
		perVertexEdges := f.count < n
		f.dense.ForEachInRange(lo, hi, func(u graph.Node) {
			chunkVerts++
			var k int64
			buf, k = e.scanPush(t, u, args, p, buf, perVertexEdges)
			chunkEdges += k
		})
		e.claims[t.ID] = buf
		e.chargePushChunk(t, args, chunkVerts, chunkEdges, false)
	})
	rs.Stats = stats
	return e.finishPush(e.mergeClaims(), rs)
}

// scanPush runs the push program on u's out-row (and with Symmetric, its
// in-row), charging edge reads per vertex when chargeEdges is set, and
// returns claims extended by what it claimed, with the number of edges
// visited.
func (e *Engine) scanPush(t *memsim.Thread, u graph.Node, args *EdgeMapArgs, p *progs, claims []graph.Node, chargeEdges bool) ([]graph.Node, int64) {
	if chargeEdges {
		e.out.ChargeScan(t, u, args.Weighted)
	}
	b := e.R.RowBuf(t)
	row, wts := e.out.ReadRow(b, u, p.wOut)
	claims = p.pushOut(u, row, wts, claims)
	edges := int64(len(row))
	if args.Symmetric {
		if chargeEdges {
			e.in.ChargeScan(t, u, false)
		}
		row, wts = e.in.ReadRow(b, u, p.wIn)
		claims = p.pushIn(u, row, wts, claims)
		edges += int64(len(row))
	}
	return claims, edges
}

// chargePushChunk issues the batched per-chunk charges of a push round:
// one random offsets gather per frontier vertex (sparse rounds only; dense
// rounds stream the offsets array instead) and the declared per-edge and
// per-vertex operator accesses.
func (e *Engine) chargePushChunk(t *memsim.Thread, args *EdgeMapArgs, verts, edges int64, offsetGather bool) {
	if offsetGather {
		e.out.Offsets.RandomN(t, verts, false)
		if args.Symmetric {
			e.in.Offsets.RandomN(t, verts, false)
		}
	}
	for _, a := range args.PerEdge {
		a.Arr.RandomN(t, edges, a.Write)
	}
	for _, a := range args.PerVertex {
		a.Arr.RandomN(t, verts, a.Write)
	}
	t.Op(int(edges))
}

// pullRound gathers along in-edges: every vertex passing PullCond scans
// its in-neighborhood, stopping early if the program says so. Whole
// scans (PullCond == nil) are charged as contiguous blocks; early-exit
// scans as per-vertex prefixes. A Gather round hands each chunk to the
// range program instead of calling the pull program per vertex, and
// charges the same.
func (e *Engine) pullRound(f *Frontier, args *EdgeMapArgs, p *progs, rs *RoundStat) *Frontier {
	n := int64(f.n)
	gather := args.Gather != nil
	var nextSet *Dense
	if !gather {
		nextSet = NewDense(f.n)
	}
	whole := args.PullCond == nil
	var cnt, outEdges atomic.Int64
	stats := e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		if f.count < n {
			e.bits.ReadRange(t, int64(lo)/64, int64(hi)/64+1)
		}
		for _, arr := range args.PullSeqRead {
			arr.ReadRange(t, int64(lo), int64(hi))
		}
		for _, arr := range args.PullSeqWrite {
			arr.WriteRange(t, int64(lo), int64(hi))
		}
		if whole {
			e.in.ChargeBlock(t, lo, hi, args.Weighted)
			if args.Symmetric {
				e.out.ChargeBlock(t, lo, hi, args.Weighted)
			}
		} else {
			e.in.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
			if args.Symmetric {
				e.out.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
			}
		}
		var chunkVerts, chunkScanned, activated, nextOut int64
		b := e.R.RowBuf(t)
		if gather {
			args.Gather(lo, hi, Rows{av: &e.in, buf: b})
			chunkVerts = int64(hi - lo)
			// A Gather round reads every in-row of the chunk whole.
			chunkScanned = e.in.DegreeRange(lo, hi)
		} else {
			for v := lo; v < hi; v++ {
				if !whole && !args.PullCond(v) {
					continue
				}
				chunkVerts++
				active, stopped, k := e.pullScan(t, &e.in, b, v, p.pullIn, p.wIn, !whole)
				chunkScanned += int64(k)
				if args.Symmetric && !stopped {
					var a bool
					a, _, k = e.pullScan(t, &e.out, b, v, p.pullOut, p.wOut, !whole)
					chunkScanned += int64(k)
					active = active || a
				}
				if active && nextSet.Set(v) {
					activated++
					nextOut += e.R.OutDegree(v)
				}
			}
		}
		perEdge := args.PerEdge
		if args.PullPerEdge != nil {
			perEdge = args.PullPerEdge
		}
		for _, a := range perEdge {
			a.Arr.RandomN(t, chunkScanned, a.Write)
		}
		for _, a := range args.PerVertex {
			a.Arr.RandomN(t, chunkVerts, a.Write)
		}
		ops := chunkScanned
		if gather {
			ops += chunkVerts
		}
		t.Op(int(ops))
		e.nextBits.RandomN(t, activated, true)
		if args.OnPullChunk != nil {
			args.OnPullChunk(t, lo, hi)
		}
		cnt.Add(activated)
		outEdges.Add(nextOut)
	})
	rs.Stats = stats
	if gather {
		return &Frontier{n: f.n}
	}
	return &Frontier{n: f.n, dense: nextSet, isDense: true, count: cnt.Load(), outEdges: outEdges.Load()}
}

// pullScan runs the pull program on v's row in av and, when prefix is set,
// charges the prefix it scanned: that many base edges of a raw row, and of
// a merged overlay row the base edges and delta entries its one Cursor walk
// had consumed there. It returns the program's results.
func (e *Engine) pullScan(t *memsim.Thread, av *core.AdjView, b *core.RowBuf, v graph.Node, prog PullRow, weighted, prefix bool) (active, stopped bool, k int) {
	row, wts := av.ReadRow(b, v, weighted)
	active, stopped, k = prog(v, row, wts)
	if prefix {
		consumed, delta := int64(k), int64(0)
		if av.Merged(v) {
			consumed, delta = b.Prefix(k, stopped)
		}
		av.ChargePrefix(t, v, consumed, delta, int64(k))
	}
	return active, stopped, k
}

// toDense converts f to the dense representation in place (pull rounds
// need O(1) membership), charging the worklist read and bit scatter, and
// returns the conversion pass's stats.
func (e *Engine) toDense(f *Frontier) memsim.RegionStats {
	if f.isDense {
		return memsim.RegionStats{}
	}
	vs := f.sparse
	stats := e.R.ParallelItems(int64(len(vs)), func(t *memsim.Thread, lo, hi int64) {
		e.wl.ReadRange(t, lo, hi)
		e.bits.RandomN(t, hi-lo, true)
	})
	f.dense = DenseFromVertices(f.n, vs)
	f.isDense = true
	f.sparse = nil
	return stats
}

// convert flips f's representation to match the policy threshold, charging
// the conversion passes, and folds their cost into the round's stats.
func (e *Engine) convert(f *Frontier, rs *RoundStat) {
	if f.isDense {
		words := int64(f.dense.WordCount())
		scan := e.R.ParallelItems(words, func(t *memsim.Thread, lo, hi int64) {
			e.bits.ReadRange(t, lo, hi)
		})
		vs := f.dense.Vertices(make([]graph.Node, 0, f.count))
		write := e.R.ParallelItems(f.count, func(t *memsim.Thread, lo, hi int64) {
			e.wl.WriteRange(t, lo, hi)
		})
		f.sparse = vs
		f.dense = nil
		f.isDense = false
		addStats(&rs.Stats, scan)
		addStats(&rs.Stats, write)
	} else {
		addStats(&rs.Stats, e.toDense(f))
	}
}

// VertexMapArgs declares one streaming per-vertex pass.
type VertexMapArgs struct {
	// Range is the pass's range program: it runs once per scheduler
	// chunk [lo, hi) on the owning thread.
	Range func(lo, hi graph.Node)
	// Fn is the per-vertex form of Range, kept for callers written
	// against it: the engine runs it as a range program that calls it
	// once per vertex. It excludes Range.
	Fn func(v graph.Node)
	// SeqRead/SeqWrite are node arrays streamed per chunk.
	SeqRead  []*memsim.Array
	SeqWrite []*memsim.Array
	// PerVertex are arrays randomly accessed once per vertex (e.g. the
	// label chain of a shortcut/pointer-jump pass).
	PerVertex []Access
	// Ops charges one operator application per vertex.
	Ops bool
}

// program returns the pass's range program (nil when it has none).
func (a *VertexMapArgs) program() func(lo, hi graph.Node) {
	if a.Fn == nil {
		return a.Range
	}
	if a.Range != nil {
		panic("engine: VertexMapArgs.Fn excludes VertexMapArgs.Range")
	}
	fn := a.Fn
	return func(lo, hi graph.Node) {
		for v := lo; v < hi; v++ {
			fn(v)
		}
	}
}

// VertexMap applies the pass to every vertex, charging sequential accesses
// per chunk.
func (e *Engine) VertexMap(a VertexMapArgs) memsim.RegionStats {
	run := a.program()
	return e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		e.chargeVertexChunk(t, &a, lo, hi)
		if run != nil {
			run(lo, hi)
		}
	})
}

// VertexFilter is VertexMap plus a predicate: it returns the frontier of
// vertices for which keep is true, charging the worklist writes. The range
// program, if any, runs on a chunk before keep is asked about its vertices.
// Each thread buffers the vertices it keeps (every vertex has one owner, so
// the kept set is deterministic) and the claim merge orders them by ID.
func (e *Engine) VertexFilter(a VertexMapArgs, keep func(v graph.Node) bool) *Frontier {
	run := a.program()
	e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		e.chargeVertexChunk(t, &a, lo, hi)
		if run != nil {
			run(lo, hi)
		}
		buf := e.claims[t.ID]
		var kept int64
		for v := lo; v < hi; v++ {
			if keep(v) {
				buf = append(buf, v)
				kept++
			}
		}
		e.claims[t.ID] = buf
		e.wl.WriteRange(t, 0, kept)
	})
	f := e.mergeClaims()
	if f.count > 0 && e.wantDense(f.count, f.outEdges) {
		f.dense = DenseFromVertices(f.n, f.sparse)
		f.isDense = true
		f.sparse = nil
	}
	return f
}

func (e *Engine) chargeVertexChunk(t *memsim.Thread, a *VertexMapArgs, lo, hi graph.Node) {
	for _, arr := range a.SeqRead {
		arr.ReadRange(t, int64(lo), int64(hi))
	}
	for _, arr := range a.SeqWrite {
		arr.WriteRange(t, int64(lo), int64(hi))
	}
	for _, acc := range a.PerVertex {
		acc.Arr.RandomN(t, int64(hi-lo), acc.Write)
	}
	if a.Ops {
		t.Op(int(hi - lo))
	}
}

// TraversalName names the traversal a config produces on r, matching the
// paper's algorithm labels: sparse-wl, dense-wl, hybrid-wl, or dir-opt
// when pull rounds are reachable.
func TraversalName(r *core.Runtime, cfg Config) string {
	if cfg.Dir != DirPush && r.InOffsets != nil {
		return "dir-opt"
	}
	switch cfg.Rep {
	case RepSparse:
		return "sparse-wl"
	case RepDense:
		return "dense-wl"
	default:
		return "hybrid-wl"
	}
}
