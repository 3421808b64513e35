// Package core implements the paper's primary contribution: a Galois-style
// shared-memory graph analytics runtime embodying the practices §4-§5
// recommend for Optane PMM and other large-memory machines:
//
//   - explicit application-level NUMA allocation (interleaved or blocked),
//     never OS-delegated local allocation, for graph-sized data (§4.1)
//   - explicit 2 MB huge pages rather than THP (§4.3), with migration
//     expected to be off (§4.2; migration is a machine-level setting)
//   - allocation of only the edge direction(s) an algorithm needs (§6.1)
//   - support for non-vertex operators and sparse worklists so
//     asynchronous data-driven algorithms are expressible (§5)
//
// A Runtime binds one graph to one simulated machine: it allocates the
// graph's CSR arrays on the machine (raw or compressed backend) and
// provides the parallel-execution and access-charging primitives the
// engine and kernels build on — the layer between them and
// graph/memsim. AdjView is the one way to walk adjacency: every visited
// row comes from ReadRow — the graph's own row as a slice (also under the
// compressed backend, which never decodes on the host), or an overlay
// merge in the thread's RowBuf — and every charge from its Charge*
// methods, ChargeVisit being the one per-vertex visit charge, so traversal
// code is backend-agnostic and only the charged shape (element ranges vs
// block bytes plus decode) differs.
// Parallel loops use static chunk ownership (chunk i -> thread i mod
// T), which is what makes charge attribution — and with it every
// simulated number — a pure function of (n, threads), independent of
// GOMAXPROCS and goroutine interleaving.
package core

import (
	"fmt"

	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Backend selects the simulated storage representation of the graph's
// adjacency arrays (see DESIGN.md "Storage backends").
type Backend int

const (
	// BackendRaw stores offsets as int64 and edges/weights as parallel
	// uint32 arrays (the paper's representation).
	BackendRaw Backend = iota
	// BackendCompressed stores per-vertex delta+varint byte blocks
	// (GBBS/Ligra+ style, graph.CompressedCSR): traversals stream fewer
	// slow-tier bytes but pay an explicit per-edge decode cost
	// (memsim.CostParams.DecodePerEdge). Kernel results are
	// byte-identical to the raw backend; only the charging differs.
	BackendCompressed
)

// String implements fmt.Stringer (backends appear in serving cache keys).
func (b Backend) String() string {
	switch b {
	case BackendCompressed:
		return "compressed"
	default:
		return "raw"
	}
}

// ParseBackend maps a backend's name (or "") to its value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "raw":
		return BackendRaw, nil
	case "compressed", "csrz":
		return BackendCompressed, nil
	default:
		return BackendRaw, fmt.Errorf("core: unknown storage backend %q (want raw or compressed)", s)
	}
}

// Options configures a Runtime. The zero value is not useful; call
// GaloisDefaults or a frameworks profile for a ready-made configuration.
type Options struct {
	// Threads is the number of virtual hardware threads parallel
	// sections use.
	Threads int
	// GraphPolicy places the CSR topology arrays; NodePolicy places
	// per-vertex label arrays.
	GraphPolicy memsim.Policy
	NodePolicy  memsim.Policy
	// PageSize backs every allocation (0 = machine default). Galois
	// passes memsim.PageHuge explicitly.
	PageSize int64
	// THP marks allocations as relying on transparent huge pages
	// (framework emulations that mmap 4 KB pages and let the OS
	// promote).
	THP bool
	// BothDirections asks for in-edges alongside out-edges regardless
	// of need (GAP/GBBS/GraphIt behaviour §6.1); New refuses it over a
	// view without the transpose. In-edge arrays are allocated exactly
	// when the view holds the transpose.
	BothDirections bool
	// Weighted allocates the edge-weight array.
	Weighted bool
	// AppDirect places every allocation on the Optane media of an
	// app-direct machine: the uncached-Optane baseline the memory-mode
	// DRAM cache is compared against.
	AppDirect bool
	// Backend selects raw or byte-compressed CSR storage for the
	// adjacency arrays.
	Backend Backend
}

// GaloisDefaults returns the configuration the paper recommends: explicit
// huge pages, interleaved placement, needed directions only.
func GaloisDefaults(threads int) Options {
	return Options{
		Threads:     threads,
		GraphPolicy: memsim.Interleaved,
		NodePolicy:  memsim.Interleaved,
		PageSize:    memsim.PageHuge,
	}
}

// Runtime binds a graph to a simulated machine.
type Runtime struct {
	M *memsim.Machine
	G *graph.Graph

	// Ov, when non-nil, layers a delta overlay over G (the sealed base of
	// an overlay epoch): adjacency views merge the delta, degree/edge
	// lookups dispatch through the overlay, and DeltaOut/DeltaIn model
	// its entries as separate small simulated arrays.
	Ov *graph.Overlay

	// Simulated allocations mirroring the CSR arrays. Under
	// BackendCompressed, Offsets/InOffsets model the byte-offset arrays,
	// Edges/InEdges the byte-granular block data, and Weights/InWeights
	// are nil (weights ride inside the blocks).
	Offsets, Edges, Weights       *memsim.Array
	InOffsets, InEdges, InWeights *memsim.Array

	// DeltaOut/DeltaIn model the overlay's per-direction delta entries
	// (8 bytes each: destination plus weight-or-delete marker); nil on
	// plain CSR runtimes.
	DeltaOut, DeltaIn *memsim.Array

	// ZOut/ZIn are the compressed adjacency forms backing Edges/InEdges
	// when Backend is BackendCompressed; nil otherwise.
	ZOut, ZIn *graph.CompressedCSR

	opts Options
	node []*memsim.Array // node arrays allocated through the runtime

	// outView/inView are built once at New: kernels fetch them in hot
	// loops, and constructing a view there would box the adjacency
	// interface on every call.
	outView, inView AdjView

	// bufs holds one row buffer per region thread, indexed by Thread.ID
	// (see RowBuf); each keeps its capacity across regions.
	bufs []RowBuf
}

// New builds a Runtime: it allocates (and warms) the graph's topology
// arrays on m according to opts. Warm-up models the paper's exclusion of
// graph loading and construction time from all reported numbers.
func New(m *memsim.Machine, g *graph.Graph, opts Options) (*Runtime, error) {
	return newRuntime(m, g, nil, opts)
}

// NewOverlay builds a Runtime over an overlay epoch: the base graph's
// topology arrays are allocated exactly as New would (the base is what the
// slow tier stores), plus one small delta array per direction for the
// overlay's entries — the honest-charging split the delta-overlay form
// exists for.
func NewOverlay(m *memsim.Machine, ov *graph.Overlay, opts Options) (*Runtime, error) {
	return newRuntime(m, ov.Base(), ov, opts)
}

func newRuntime(m *memsim.Machine, g *graph.Graph, ov *graph.Overlay, opts Options) (*Runtime, error) {
	if opts.Threads <= 0 {
		opts.Threads = m.Config().MaxThreads()
	}
	// The in-direction is allocated exactly when the view holds one; the
	// runtime never builds it (inputs are sealed where they are born).
	hasIn := g.HasIn()
	if ov != nil {
		hasIn = ov.HasIn()
	}
	if opts.BothDirections && !hasIn {
		return nil, fmt.Errorf("core: Options.BothDirections over a view without the transpose")
	}
	r := &Runtime{M: m, G: g, Ov: ov, opts: opts}
	r.bufs = make([]RowBuf, clampThreads(r))
	n := int64(g.NumNodes())
	e := g.NumEdges()

	alloc := func(name string, length, elem int64) (*memsim.Array, error) {
		a, err := m.Alloc(name, length, elem, memsim.AllocOpts{
			Policy:       opts.GraphPolicy,
			BlockThreads: opts.Threads,
			PageSize:     opts.PageSize,
			THP:          opts.THP,
			AppDirect:    opts.AppDirect,
		})
		if err != nil {
			return nil, fmt.Errorf("core: allocating %s: %w", name, err)
		}
		a.Warm()
		return a, nil
	}

	var err error
	if opts.Backend == BackendCompressed {
		// Compressed backend: one byte-offset array per direction plus
		// the byte-granular block data; degrees and weights live inside
		// the blocks, so no separate edge or weight arrays exist.
		r.ZOut = g.CompressOut()
		if r.Offsets, err = alloc("csrz.offsets", n+1, 8); err != nil {
			return nil, err
		}
		_, blocks := r.ZOut.ExtentRange(0, graph.Node(n))
		if r.Edges, err = alloc("csrz.edges", blocks, 1); err != nil {
			return nil, err
		}
		if hasIn {
			r.ZIn = g.CompressIn()
			if r.InOffsets, err = alloc("csrz.in.offsets", n+1, 8); err != nil {
				return nil, err
			}
			_, blocks := r.ZIn.ExtentRange(0, graph.Node(n))
			if r.InEdges, err = alloc("csrz.in.edges", blocks, 1); err != nil {
				return nil, err
			}
		}
		if err := r.allocOverlay(alloc); err != nil {
			return nil, err
		}
		r.buildViews()
		return r, nil
	}
	if r.Offsets, err = alloc("csr.offsets", n+1, 8); err != nil {
		return nil, err
	}
	if r.Edges, err = alloc("csr.edges", e, 4); err != nil {
		return nil, err
	}
	if opts.Weighted {
		if r.Weights, err = alloc("csr.weights", e, 4); err != nil {
			return nil, err
		}
	}
	if hasIn {
		if r.InOffsets, err = alloc("csr.in.offsets", n+1, 8); err != nil {
			return nil, err
		}
		if r.InEdges, err = alloc("csr.in.edges", e, 4); err != nil {
			return nil, err
		}
		if opts.Weighted {
			if r.InWeights, err = alloc("csr.in.weights", e, 4); err != nil {
				return nil, err
			}
		}
	}
	if err := r.allocOverlay(alloc); err != nil {
		return nil, err
	}
	r.buildViews()
	return r, nil
}

// allocOverlay allocates the simulated delta arrays of an overlay runtime
// (no-op otherwise). A direction's array is sized by its delta entries —
// the small separate footprint overlay charging reads alongside the base
// blocks — with a 1-element floor (memsim arrays cannot be empty).
func (r *Runtime) allocOverlay(alloc func(name string, length, elem int64) (*memsim.Array, error)) error {
	if r.Ov == nil {
		return nil
	}
	length := func(n int64) int64 {
		if n < 1 {
			return 1
		}
		return n
	}
	var err error
	if r.DeltaOut, err = alloc("overlay.out.delta", length(r.Ov.OutAdj(false).DeltaEntries()), 8); err != nil {
		return err
	}
	if r.InOffsets != nil {
		if r.DeltaIn, err = alloc("overlay.in.delta", length(r.Ov.InAdj(false).DeltaEntries()), 8); err != nil {
			return err
		}
	}
	return nil
}

// MustNew is New that panics on error, for configurations the caller has
// already validated.
func MustNew(m *memsim.Machine, g *graph.Graph, opts Options) *Runtime {
	r, err := New(m, g, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// Opts returns the runtime's configuration.
func (r *Runtime) Opts() Options { return r.opts }

// Threads returns the configured thread count.
func (r *Runtime) Threads() int { return r.opts.Threads }

// Close frees every allocation made through the runtime, releasing its
// simulated footprint.
func (r *Runtime) Close() {
	for _, a := range []*memsim.Array{r.Offsets, r.Edges, r.Weights, r.InOffsets, r.InEdges, r.InWeights, r.DeltaOut, r.DeltaIn} {
		if a != nil {
			r.M.Free(a)
		}
	}
	for _, a := range r.node {
		r.M.Free(a)
	}
	r.node = nil
}

// NodeArray allocates a per-vertex array of elem-byte elements with the
// runtime's node placement policy. The array is tracked and freed by Close.
func (r *Runtime) NodeArray(name string, elem int64) *memsim.Array {
	a := r.M.MustAlloc(name, int64(r.G.NumNodes()), elem, memsim.AllocOpts{
		Policy:       r.opts.NodePolicy,
		BlockThreads: r.opts.Threads,
		PageSize:     r.opts.PageSize,
		THP:          r.opts.THP,
		AppDirect:    r.opts.AppDirect,
	})
	r.node = append(r.node, a)
	return a
}

// ScratchArray allocates an arbitrary-length tracked array (worklist
// storage, per-level queues).
func (r *Runtime) ScratchArray(name string, length, elem int64) *memsim.Array {
	a := r.M.MustAlloc(name, length, elem, memsim.AllocOpts{
		Policy:       r.opts.NodePolicy,
		BlockThreads: r.opts.Threads,
		PageSize:     r.opts.PageSize,
		THP:          r.opts.THP,
		AppDirect:    r.opts.AppDirect,
	})
	r.node = append(r.node, a)
	return a
}

// ParallelVerts distributes the vertex range across the runtime's threads
// in statically owned chunks (see ParallelItems), so degree-skewed inputs
// (web-crawl hubs) spread hub chunks across all threads.
func (r *Runtime) ParallelVerts(fn func(t *memsim.Thread, lo, hi graph.Node)) memsim.RegionStats {
	return r.ParallelItems(int64(r.G.NumNodes()), func(t *memsim.Thread, lo, hi int64) {
		fn(t, graph.Node(lo), graph.Node(hi))
	})
}

// ParallelItems distributes [0, n) across threads in fixed-size chunks with
// deterministic static ownership: chunk i belongs to thread i mod T, and
// each thread walks its chunks in ascending order. Unlike a dynamic shared
// cursor, charge attribution (which thread's simulated clock and counters a
// chunk lands on) is a pure function of (n, T) — never of goroutine
// interleaving — which is what keeps simulated results byte-identical at
// any GOMAXPROCS. Strided ownership still spreads degree-skewed chunk costs
// across threads the way Galois' dynamic scheduler does on average.
func (r *Runtime) ParallelItems(n int64, fn func(t *memsim.Thread, lo, hi int64)) memsim.RegionStats {
	threads := clampThreads(r)
	chunk := n / int64(threads*8)
	if chunk < 64 {
		// Small work lists still spread across every thread (one chunk
		// per thread) rather than serializing onto chunk 0: the
		// dynamic scheduler this replaces would have balanced a tiny
		// high-diameter frontier too.
		chunk = (n + int64(threads) - 1) / int64(threads)
		if chunk > 64 {
			chunk = 64
		}
		if chunk < 1 {
			chunk = 1
		}
	}
	nChunks := (n + chunk - 1) / chunk
	return r.M.Parallel(threads, func(t *memsim.Thread) {
		for c := int64(t.ID); c < nChunks; c += int64(threads) {
			lo := c * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(t, lo, hi)
		}
	})
}

// Parallel runs fn on every configured thread with no pre-partitioned
// work; asynchronous kernels use it with a shared worklist.
func (r *Runtime) Parallel(fn func(t *memsim.Thread)) memsim.RegionStats {
	return r.M.Parallel(clampThreads(r), fn)
}

// RowBuf returns thread t's buffer for ReadRow. A row merged into it stays
// valid until t's next ReadRow with it.
func (r *Runtime) RowBuf(t *memsim.Thread) *RowBuf { return &r.bufs[t.ID] }

// RegionThreads returns the thread count parallel regions actually run with
// (the configured count clamped to the machine), which callers use to size
// per-thread shards indexed by Thread.ID.
func (r *Runtime) RegionThreads() int { return clampThreads(r) }

func clampThreads(r *Runtime) int {
	threads := r.opts.Threads
	if max := r.M.Config().MaxThreads(); threads > max {
		threads = max
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// AdjView bundles one direction's adjacency view (raw rows, charged as
// raw elements or as compressed byte blocks) with the simulated arrays its
// traversal charges. The operator engine and the asynchronous kernels go
// through this seam, so traversal code is identical under both storage
// backends and only the charging (raw element ranges vs compressed byte
// ranges plus decode cost) differs.
type AdjView struct {
	Adj     graph.Adjacency
	Offsets *memsim.Array
	Edges   *memsim.Array // uint32 edge elements (raw) or block bytes (compressed)
	Weights *memsim.Array // raw weighted runtimes only; weights ride in compressed blocks
	// Z is the compressed base form whose blocks Edges models, nil on the
	// raw backend: traversals walk raw rows either way, and Z sizes the
	// byte prefix an early-exited scan streamed (PrefixBytes).
	Z *graph.CompressedCSR

	// Rows are the host rows every form walks — the graph's own CSR
	// slices, the base's under an overlay — and RowWeights their edge
	// weights (nil when the graph has none). ReadRow slices them with no
	// interface call; only an overlay-touched row needs the merge.
	Rows       graph.RawAdjacency
	RowWeights []uint32

	// Ov/Delta are set on overlay runtimes: Ov is Adj's concrete overlay
	// adapter (for base-vs-delta extent splits) and Delta the simulated
	// array its entries charge against. Base traversal charges are
	// identical to a plain runtime's; the delta entries are charged as a
	// separate small array — the honest-charging contract.
	Ov    *graph.OverlayAdj
	Delta *memsim.Array
}

// buildViews caches both directions' views once the arrays exist. Weights
// and ZOut/ZIn are nil where the backend has none.
func (r *Runtime) buildViews() {
	z := r.opts.Backend == BackendCompressed
	r.outView = AdjView{Adj: r.G.RawOut(), Offsets: r.Offsets, Edges: r.Edges, Weights: r.Weights, Z: r.ZOut,
		Rows: r.G.RawOut(), RowWeights: r.G.OutWeights}
	if z {
		r.outView.Adj = r.ZOut
	}
	if r.Ov != nil {
		oa := r.Ov.OutAdj(z)
		r.outView.Adj, r.outView.Ov, r.outView.Delta = oa, oa, r.DeltaOut
	}
	r.inView = AdjView{}
	if r.InOffsets == nil {
		return
	}
	r.inView = AdjView{Adj: r.G.RawIn(), Offsets: r.InOffsets, Edges: r.InEdges, Weights: r.InWeights, Z: r.ZIn,
		Rows: r.G.RawIn(), RowWeights: r.G.InWeights}
	if z {
		r.inView.Adj = r.ZIn
	}
	if r.Ov != nil {
		ia := r.Ov.InAdj(z)
		r.inView.Adj, r.inView.Ov, r.inView.Delta = ia, ia, r.DeltaIn
	}
}

// OutView returns the out-direction view.
func (r *Runtime) OutView() AdjView { return r.outView }

// InView returns the in-direction view; Valid reports false when the
// runtime holds no transpose.
func (r *Runtime) InView() AdjView { return r.inView }

// Valid reports whether the view's direction is allocated.
func (av AdjView) Valid() bool { return av.Adj != nil }

// Merged reports whether v's row is an overlay merge: a vertex the delta
// touches, whose ReadRow is a Cursor walk into the caller's RowBuf rather
// than the graph's own storage.
func (av *AdjView) Merged(v graph.Node) bool {
	return av.Ov != nil && av.Ov.Touched(v)
}

// RowBuf is one thread's storage for merged overlay rows. An
// overlay-touched row is merged into it once per visit, by one Cursor
// walk; every other row is the graph's own storage.
type RowBuf struct {
	row []graph.Node
	wts []uint32
	// start is the merging Cursor as it stood before its first step, from
	// which Prefix replays what the walk consumed.
	start graph.Cursor
}

// ReadRow is the one row reader: it returns v's row in Cursor order and,
// when weighted, its weights, wts[k] being the weight of the edge the
// Cursor reports at row[k] (nil otherwise). A raw or compressed row, and
// an overlay row the delta does not touch, is a read-only subslice of the
// graph's own storage capped at the row's end, with its weights the same
// range of RowWeights. An overlay-touched row is merged into b by one
// Cursor walk, valid until b's next merge. Neither may be modified or
// retained. weighted needs RowWeights.
func (av *AdjView) ReadRow(b *RowBuf, v graph.Node, weighted bool) ([]graph.Node, []uint32) {
	if av.Merged(v) {
		return b.merge(av.Ov, v, weighted)
	}
	lo, hi := av.Rows.Offsets[v], av.Rows.Offsets[v+1]
	if weighted {
		return av.Rows.Edges[lo:hi:hi], av.RowWeights[lo:hi:hi]
	}
	return av.Rows.Edges[lo:hi:hi], nil
}

// merge fills b with v's merged row in ov by one Cursor walk.
func (b *RowBuf) merge(ov *graph.OverlayAdj, v graph.Node, weighted bool) ([]graph.Node, []uint32) {
	row, wts := b.row[:0], b.wts[:0]
	c := ov.Cursor(v)
	b.start = c
	for d, ok := c.Next(); ok; d, ok = c.Next() {
		row = append(row, d)
		if weighted {
			wts = append(wts, ov.Weight(c.EI()))
		}
	}
	b.row, b.wts = row, wts
	if !weighted {
		wts = nil
	}
	return row, wts
}

// Prefix returns the base edges and delta entries the walk of the row b
// last merged had consumed where a scan of k edges ended: just after the
// k-th edge if the scan stopped there, after the terminating step if it
// ran off the row's end. ChargePrefix takes them.
func (b *RowBuf) Prefix(k int, stopped bool) (base, delta int64) {
	c := b.start
	if stopped {
		for range k {
			c.Next()
		}
	} else {
		for _, ok := c.Next(); ok; _, ok = c.Next() {
		}
	}
	return c.Consumed(), c.DeltaConsumed()
}

// DegreeRange returns the edge count of the rows of [lo, hi), merged ones
// included: what walking each of them whole yields.
func (av *AdjView) DegreeRange(lo, hi graph.Node) int64 {
	if av.Ov != nil {
		return av.Ov.DegreeRange(lo, hi)
	}
	return av.Rows.Offsets[hi] - av.Rows.Offsets[lo]
}

// ChargeScan charges streaming v's whole adjacency block: the raw edge
// (and, if weighted, weight) elements, or the compressed bytes plus the
// per-edge decode cost. Offsets are charged by the caller: ChargeVisit
// reads v's pair, chunked rounds gather or stream them per chunk.
func (av *AdjView) ChargeScan(t *memsim.Thread, v graph.Node, weighted bool) {
	lo, hi := av.Adj.Extent(v)
	av.Edges.ReadRange(t, lo, hi)
	if av.Z != nil {
		deg := av.Adj.Degree(v)
		if av.Ov != nil {
			deg = av.Ov.BaseDegree(v) // the base block decodes whole
		}
		t.Decode(1, deg)
	} else if weighted && av.Weights != nil {
		av.Weights.ReadRange(t, lo, hi)
	}
	av.chargeDelta(t, v)
}

// ChargeVisit is the one per-vertex visit charge: v's offset pair, then
// its whole block (ChargeScan). Rounds that visit whole chunks charge
// their offsets per chunk instead (ChargeBlock, or a gather per chunk).
func (av *AdjView) ChargeVisit(t *memsim.Thread, v graph.Node, weighted bool) {
	av.Offsets.ReadN(t, int64(v), 2)
	av.ChargeScan(t, v, weighted)
}

// chargeDelta streams v's overlay delta entries (no-op off overlays and
// for untouched vertices).
func (av *AdjView) chargeDelta(t *memsim.Thread, v graph.Node) {
	if av.Ov == nil {
		return
	}
	if dlo, dhi := av.Ov.DeltaExtent(v); dhi > dlo {
		av.Delta.ReadRange(t, dlo, dhi)
	}
}

// ChargePrefix charges an early-exited scan of v's block that consumed
// `consumed` base edges and `deltaConsumed` overlay delta entries (a
// Cursor's Consumed and DeltaConsumed values) covering k edges: that many
// edge elements on the raw backend, their block prefix's bytes plus the
// decode of k edges on the compressed one.
func (av *AdjView) ChargePrefix(t *memsim.Thread, v graph.Node, consumed, deltaConsumed, k int64) {
	lo, _ := av.Adj.Extent(v)
	if av.Z == nil {
		av.Edges.ReadRange(t, lo, lo+consumed)
	} else {
		av.Edges.ReadRange(t, lo, lo+av.Z.PrefixBytes(v, consumed))
		t.Decode(1, k)
	}
	if av.Ov != nil && deltaConsumed > 0 {
		dlo, _ := av.Ov.DeltaExtent(v)
		av.Delta.ReadRange(t, dlo, dlo+deltaConsumed)
	}
}

// ChargeBlock charges one batched scan of the offsets plus every
// adjacency block of the contiguous vertex range [lo, hi): the chunked
// equivalent of ChargeScan per vertex, in two sequential range reads.
func (av *AdjView) ChargeBlock(t *memsim.Thread, lo, hi graph.Node, weighted bool) {
	if hi <= lo {
		return
	}
	av.Offsets.ReadRange(t, int64(lo), int64(hi)+1)
	elo, ehi := av.Adj.ExtentRange(lo, hi)
	av.Edges.ReadRange(t, elo, ehi)
	if av.Z != nil {
		// Base(v) keeps base semantics under overlays, so this is the
		// base edge count of the range — exactly what must be decoded.
		t.Decode(int64(hi-lo), av.Adj.Base(hi)-av.Adj.Base(lo))
	} else if weighted && av.Weights != nil {
		av.Weights.ReadRange(t, elo, ehi)
	}
	if av.Ov != nil {
		if dlo, dhi := av.Ov.DeltaExtentRange(lo, hi); dhi > dlo {
			av.Delta.ReadRange(t, dlo, dhi)
		}
	}
}

// Weighted reports whether edge weights are available to kernels on this
// runtime (as a parallel array on the raw backend, interleaved in the
// blocks on the compressed one).
func (r *Runtime) Weighted() bool {
	if r.opts.Backend == BackendCompressed {
		return r.opts.Weighted && r.G.HasWeights()
	}
	return r.Weights != nil
}

// InWeighted is Weighted for the transpose direction.
func (r *Runtime) InWeighted() bool {
	if r.InOffsets == nil || r.G.InWeights == nil {
		return false
	}
	if r.opts.Backend == BackendCompressed {
		return r.opts.Weighted
	}
	return r.InWeights != nil
}

// NumNodes dispatches the vertex count (identical on every epoch form).
func (r *Runtime) NumNodes() int { return r.G.NumNodes() }

// NumEdges dispatches the edge count of the epoch the runtime serves: the
// merged base+delta count on overlay epochs, the CSR count otherwise.
// Kernels must use this (not r.G.NumEdges()) for |E|-derived thresholds so
// overlay and rebuilt epochs take identical push/pull decisions.
func (r *Runtime) NumEdges() int64 {
	if r.Ov != nil {
		return r.Ov.NumEdges()
	}
	return r.G.NumEdges()
}

// OutDegree dispatches the merged out-degree of v.
func (r *Runtime) OutDegree(v graph.Node) int64 {
	if r.Ov != nil {
		return r.Ov.OutDegree(v)
	}
	return r.G.OutDegree(v)
}

// InDegree dispatches the merged in-degree of v.
func (r *Runtime) InDegree(v graph.Node) int64 {
	if r.Ov != nil {
		return r.Ov.InDegree(v)
	}
	return r.G.InDegree(v)
}

// TopologyReadBytes returns the simulated bytes read so far from the
// graph's adjacency arrays (offsets, edges, weights, both directions) —
// the slow-tier CSR stream the compressed backend exists to shrink.
// Per-vertex label arrays are excluded: their gathers are the same under
// both backends.
func (r *Runtime) TopologyReadBytes() uint64 {
	var total uint64
	for _, a := range []*memsim.Array{r.Offsets, r.Edges, r.Weights, r.InOffsets, r.InEdges, r.InWeights, r.DeltaOut, r.DeltaIn} {
		if a != nil {
			read, _ := a.Traffic()
			total += read
		}
	}
	return total
}

// FootprintBytes reports the simulated bytes allocated for the graph's
// topology (the §6.1 both-directions-vs-needed-direction comparison).
func (r *Runtime) FootprintBytes() int64 {
	var total int64
	for _, a := range []*memsim.Array{r.Offsets, r.Edges, r.Weights, r.InOffsets, r.InEdges, r.InWeights, r.DeltaOut, r.DeltaIn} {
		if a != nil {
			total += a.Bytes()
		}
	}
	return total
}
