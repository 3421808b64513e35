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
	// iteration goes through their graph.Adjacency (the graph's own rows
	// on either backend, ranged over as slices; a Cursor only for merged
	// overlay rows) and all edge-traffic charging through their arrays,
	// so the engine is storage-backend agnostic.
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
	// merged is the claim merge's output scratch (MergeClaims' outD),
	// reused across rounds.
	merged []graph.Node

	// rows holds one row scratch slice per virtual thread, indexed by
	// Thread.ID, that a Gather round's Adjacency.Row merges an
	// overlay-touched vertex's in-row into; like claims it keeps its
	// capacity across rounds.
	rows [][]graph.Node

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
		rows:     make([][]graph.Node, r.RegionThreads()),
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

// EdgeMapArgs declares one edge-operator application.
type EdgeMapArgs struct {
	// Push is invoked for every edge (u, d) leaving an active vertex u
	// when traversing in the push direction; ei indexes the edge arrays
	// of the direction being scanned. It returns whether d's value
	// improved (the engine activates d in the next frontier, deduped and
	// ID-sorted at the round barrier). For deterministic simulation the
	// SET of activated vertices must not depend on thread interleaving —
	// which thread claims, how often, and in what order all wash out in
	// the merge. CAS transitions (one winner per vertex) and min-CAS
	// improvements over round-start snapshots both qualify; reading
	// mutable shared state into the claim decision does not. Shared
	// writes inside Push must themselves be commutative and idempotent
	// (CAS min-reductions, atomic adds).
	Push func(u, d graph.Node, ei int64) bool
	// Pull is invoked for every in-edge (u, v) of a candidate vertex v
	// when traversing in the pull direction. It returns whether v became
	// active and whether v's scan can stop early (charged as a prefix
	// scan via the runtime's in-direction arrays).
	Pull func(v, u graph.Node, ei int64) (active, stop bool)
	// PullCond gates which vertices scan in pull rounds (nil = all).
	// When nil the engine assumes whole-neighborhood scans and charges
	// edge reads in contiguous per-chunk blocks.
	PullCond func(v graph.Node) bool
	// Gather replaces Pull for whole-neighborhood reductions: it runs once
	// per vertex with v's entire in-row, as Adjacency.Row returns it (the
	// graph's own storage, or a per-thread scratch slice for a merged
	// overlay row), which it must neither modify nor retain. A Gather
	// round is a pull round over every vertex that activates nothing (it
	// returns an empty frontier) and charges like a whole-row Pull plus
	// one operator application per vertex. It excludes Pull, Push,
	// PullCond and Symmetric.
	Gather func(v graph.Node, in []graph.Node)
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
	// Weighted charges edge-weight reads alongside edge scans.
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
	pull := false
	switch {
	case args.Gather != nil:
		checkGather(&args)
		pull = true
	case args.Pull == nil || !e.CanPull():
		// push only
	case args.Push == nil, e.cfg.Dir == DirPull:
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
		next = e.pullRound(f, &args, &rs)
		addStats(&rs.Stats, conv)
		// Representation maintenance: pull rounds produce a dense
		// frontier natively; convert if policy wants sparse.
		if next.count > 0 && e.wantDense(next.count, next.outEdges) != next.isDense {
			e.convert(next, &rs)
		}
	case f.isDense:
		rs.Dense = true
		next = e.pushDense(f, &args, &rs)
	default:
		next = e.pushSparse(f, &args, &rs)
	}
	e.trace = append(e.trace, rs)
	return next
}

// checkGather panics, naming the field, when a Gather round is combined
// with a field it excludes: a kernel bug no validated plan reaches.
func checkGather(args *EdgeMapArgs) {
	var field string
	switch {
	case args.Pull != nil:
		field = "Pull"
	case args.Push != nil:
		field = "Push"
	case args.PullCond != nil:
		field = "PullCond"
	case args.Symmetric:
		field = "Symmetric"
	default:
		return
	}
	panic("engine: EdgeMapArgs.Gather excludes EdgeMapArgs." + field)
}

// MergeClaims is the one sorted-dedup claim merge: the barrier phase that
// turns claim buffers — one per virtual thread of a region, or one per
// thread of every source shard for one owner range of a superstep — into
// an ID-sorted, duplicate-free destination list. It drains the buffers in
// index order (truncating them, capacity retained), deduplicates against
// seen, sorts the survivors, and clears seen again in O(|merged|), so
// thousands of tiny-frontier rounds on a high-diameter graph never pay an
// O(|V|) zeroing. seen must be empty (at least at the destinations merged)
// on entry and span the destination ID space.
//
// Sorting makes the result independent of claim attribution — which buffer
// held a claim, how often, in what order — so operators whose claims race to
// a unique winner are as deterministic as snapshot-judged ones.
//
// Bare activations pass vals == nil (acc and reduce are unused) and get a
// nil value list back. Valued claims carry one reduction operand each
// (vals[i][k] belongs to dsts[i][k]); duplicates of a destination fold
// through reduce into acc, |V|-sized scratch, and the second result holds
// the reduced operand of every merged destination. reduce must be
// commutative and associative (min, sum) for the same independence to hold.
//
// The results are built in outD's and outV's storage (truncated first; nil
// allocates), so a caller that passes its previous results back merges
// without allocating once their capacity suffices. seen and acc are only
// touched at the merged destinations: merges whose destination sets are
// disjoint (shard owner ranges) may share them concurrently.
func MergeClaims(seen *Dense, dsts [][]graph.Node, vals [][]uint64, acc []uint64, reduce func(a, b uint64) uint64, outD []graph.Node, outV []uint64) ([]graph.Node, []uint64) {
	merged := outD[:0]
	if vals == nil {
		for i, buf := range dsts {
			for _, d := range buf {
				if seen.Set(d) {
					merged = append(merged, d)
				}
			}
			dsts[i] = buf[:0]
		}
	} else {
		for i, buf := range dsts {
			operands := vals[i]
			for k, d := range buf {
				if seen.Set(d) {
					merged = append(merged, d)
					acc[d] = operands[k]
				} else {
					acc[d] = reduce(acc[d], operands[k])
				}
			}
			dsts[i], vals[i] = buf[:0], operands[:0]
		}
	}
	slices.Sort(merged)
	var reduced []uint64
	if vals != nil {
		reduced = slices.Grow(outV[:0], len(merged))[:len(merged)]
	}
	for i, d := range merged {
		seen.Unset(d)
		if reduced != nil {
			reduced[i] = acc[d]
		}
	}
	return merged, reduced
}

// mergeClaims drains the per-thread claim buffers into the next frontier
// (sparse; callers convert per policy). The frontier's list is the engine's
// merge scratch until finishPush gives it its own storage or drops it.
func (e *Engine) mergeClaims() *Frontier {
	n := e.R.NumNodes()
	if e.dedup == nil {
		e.dedup = NewDense(n)
	}
	e.merged, _ = MergeClaims(e.dedup, e.claims, nil, nil, nil, e.merged, nil)
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
func (e *Engine) pushSparse(f *Frontier, args *EdgeMapArgs, rs *RoundStat) *Frontier {
	stats := e.R.ParallelItems(int64(len(f.sparse)), func(t *memsim.Thread, lo, hi int64) {
		e.wl.ReadRange(t, lo, hi)
		var chunkVerts, chunkEdges int64
		buf := e.claims[t.ID]
		for _, u := range f.sparse[lo:hi] {
			chunkVerts++
			var k int64
			buf, k = e.scanPush(t, u, args, buf, true)
			chunkEdges += k
		}
		e.claims[t.ID] = buf
		e.chargePushChunk(t, args, chunkVerts, chunkEdges, true)
	})
	rs.Stats = stats
	return e.finishPush(e.mergeClaims(), rs)
}

// pushDense scatters from the bit-vector representation: every round scans
// the whole frontier bit-vector and offsets array (the §5.2 dense-worklist
// penalty), visiting edges only for active vertices.
func (e *Engine) pushDense(f *Frontier, args *EdgeMapArgs, rs *RoundStat) *Frontier {
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
			buf, k = e.scanPush(t, u, args, buf, perVertexEdges)
			chunkEdges += k
		})
		e.claims[t.ID] = buf
		e.chargePushChunk(t, args, chunkVerts, chunkEdges, false)
	})
	rs.Stats = stats
	return e.finishPush(e.mergeClaims(), rs)
}

// scanPush visits u's out- (and with Symmetric, in-) neighborhood,
// charging edge reads per vertex when chargeEdges is set, appends every
// target Push claims to claims, and returns it with the number of edges
// visited.
func (e *Engine) scanPush(t *memsim.Thread, u graph.Node, args *EdgeMapArgs, claims []graph.Node, chargeEdges bool) ([]graph.Node, int64) {
	if chargeEdges {
		e.out.ChargeScan(t, u, args.Weighted)
	}
	claims, edges := pushRow(&e.out, u, args.Push, claims)
	if args.Symmetric {
		if chargeEdges {
			e.in.ChargeScan(t, u, false)
		}
		var k int64
		claims, k = pushRow(&e.in, u, args.Push, claims)
		edges += k
	}
	return claims, edges
}

// pushRow calls push on every edge of u's row in av, in row order,
// appends each target it claims to claims, and returns it with the row's
// length. A raw row is ranged over directly, edge indices counting up from
// Base(u); a merged overlay row is walked through a Cursor for its edge
// indices.
func pushRow(av *core.AdjView, u graph.Node, push func(u, d graph.Node, ei int64) bool, claims []graph.Node) ([]graph.Node, int64) {
	if av.Merged(u) {
		n := int64(0)
		c := av.Adj.Cursor(u)
		for d, ok := c.Next(); ok; d, ok = c.Next() {
			if push(u, d, c.EI()) {
				claims = append(claims, d)
			}
			n++
		}
		return claims, n
	}
	row, _ := av.Adj.Row(nil, u)
	ei := av.Adj.Base(u)
	for _, d := range row {
		if push(u, d, ei) {
			claims = append(claims, d)
		}
		ei++
	}
	return claims, int64(len(row))
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
// its in-neighborhood, stopping early if the operator says so. Whole
// scans (PullCond == nil) are charged as contiguous blocks; early-exit
// scans as per-vertex prefixes. A Gather round hands each vertex's whole
// row to the operator instead of calling Pull per edge, and charges the
// same.
func (e *Engine) pullRound(f *Frontier, args *EdgeMapArgs, rs *RoundStat) *Frontier {
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
		if gather {
			scratch := e.rows[t.ID]
			for v := lo; v < hi; v++ {
				row, raw := e.in.Adj.Row(scratch, v)
				if !raw {
					scratch = row
				}
				args.Gather(v, row)
				chunkScanned += int64(len(row))
			}
			e.rows[t.ID] = scratch
			chunkVerts = int64(hi - lo)
		} else {
			for v := lo; v < hi; v++ {
				if !whole && !args.PullCond(v) {
					continue
				}
				chunkVerts++
				in := pullRow(&e.in, v, args.Pull)
				if !whole {
					e.in.ChargePrefix(t, v, in.consumed, in.deltaConsumed, in.scanned)
				}
				chunkScanned += in.scanned
				active := in.active
				if args.Symmetric && !in.stopped {
					out := pullRow(&e.out, v, args.Pull)
					if !whole {
						e.out.ChargePrefix(t, v, out.consumed, out.deltaConsumed, out.scanned)
					}
					chunkScanned += out.scanned
					active = active || out.active
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

// pullScan is what one pull scan of a row did: whether an edge activated
// the vertex, whether the operator stopped the scan early, the edges it
// scanned, and the base edges and overlay delta entries it consumed (what
// AdjView.ChargePrefix charges).
type pullScan struct {
	active, stopped                  bool
	scanned, consumed, deltaConsumed int64
}

// pullRow calls pull on the edges of v's row in av, in row order, until it
// asks to stop. A raw row is ranged over directly: edge indices count up
// from Base(v), and the base edges consumed are the edges scanned. A merged
// overlay row is walked through a Cursor, which counts both.
func pullRow(av *core.AdjView, v graph.Node, pull func(v, u graph.Node, ei int64) (bool, bool)) pullScan {
	var s pullScan
	if av.Merged(v) {
		c := av.Adj.Cursor(v)
		for !s.stopped {
			u, ok := c.Next()
			if !ok {
				break
			}
			var a bool
			a, s.stopped = pull(v, u, c.EI())
			s.scanned++
			s.active = s.active || a
		}
		s.consumed, s.deltaConsumed = c.Consumed(), c.DeltaConsumed()
		return s
	}
	row, _ := av.Adj.Row(nil, v)
	ei := av.Adj.Base(v)
	for _, u := range row {
		var a bool
		a, s.stopped = pull(v, u, ei)
		s.scanned++
		s.active = s.active || a
		if s.stopped {
			break
		}
		ei++
	}
	s.consumed = s.scanned
	return s
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
	// Fn runs once per vertex on the owning thread.
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

// VertexMap applies the pass to every vertex, charging sequential accesses
// per chunk.
func (e *Engine) VertexMap(a VertexMapArgs) memsim.RegionStats {
	return e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		e.chargeVertexChunk(t, &a, lo, hi)
		if a.Fn != nil {
			for v := lo; v < hi; v++ {
				a.Fn(v)
			}
		}
	})
}

// VertexFilter is VertexMap plus a predicate: it returns the frontier of
// vertices for which keep is true, charging the worklist writes. Each
// thread buffers the vertices it keeps (every vertex has one owner, so the
// kept set is deterministic) and the claim merge orders them by ID.
func (e *Engine) VertexFilter(a VertexMapArgs, keep func(v graph.Node) bool) *Frontier {
	e.R.ParallelVerts(func(t *memsim.Thread, lo, hi graph.Node) {
		e.chargeVertexChunk(t, &a, lo, hi)
		buf := e.claims[t.ID]
		var kept int64
		for v := lo; v < hi; v++ {
			if a.Fn != nil {
				a.Fn(v)
			}
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
