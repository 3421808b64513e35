package graph

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the delta-overlay adjacency form: an immutable
// sealed base graph plus a small sorted per-source insert/delete delta
// (Aspen/GraphBolt-style). The delta has ONE representation — the two
// sorted per-direction sides every reader walks — and applying an update
// batch produces each new side by one linear merge of the prior side with
// the sorted batch: O(|delta| + batch·(log batch + log d)) per batch,
// never an O(E) merge-rebuild and never a re-sort of what earlier batches
// already ordered. The overlay satisfies the Adjacency seam, so every
// kernel runs over it unchanged. The serving layer compacts an overlay
// back into a plain CSR once the delta grows past a threshold; Materialize
// is that merge, and it is also how ApplyUpdates rebuilds, so overlay
// iteration order and rebuilt adjacency order are identical by
// construction.
//
// Edge-index (ei) contract: base edges keep their base CSR indices
// (deleted slots are skipped, never re-yielded), and the i-th inserted
// edge of a direction gets ei = |E_base| + i. Weight lookups by ei
// dispatch on that split (see OverlayAdj.Weight), which keeps ei stable
// across batches without renumbering the base arrays.

// ovSide is one direction's delta: the touched vertices (sorted), and per
// touched vertex the sorted inserted neighbors, the deleted neighbor
// values (each pair once; a delete kills every parallel copy), and the
// count of base slots those deletions remove.
type ovSide struct {
	srcs []Node
	// touched is srcs as a bitset over [0, max(srcs)], so asking about an
	// untouched vertex costs one bit test instead of a binary search.
	touched []uint64
	// insOff/delOff have len(srcs)+1; touched vertex i's inserts are
	// insDst[insOff[i]:insOff[i+1]] (sorted, stable within equal dst) with
	// parallel weights insW, and its deleted pair values are
	// delDst[delOff[i]:delOff[i+1]] (sorted, unique; only pairs the base
	// holds a copy of — a deleted pair that existed only as inserts simply
	// loses them).
	insOff []int32
	insDst []Node
	insW   []uint32 // nil on unweighted bases
	delOff []int32
	delDst []Node
	// delSlots[i] is the number of base adjacency slots deleted from
	// touched vertex i (counting every parallel copy of each deleted pair).
	delSlots []int32
	// entOff has len(srcs)+1: prefix sum of per-vertex delta entries
	// (inserts + delete pairs), addressing the side's simulated delta
	// array for honest charging.
	entOff []int64
	// edges is the merged edge count of the side.
	edges int64
}

// has reports whether v is touched.
func (s *ovSide) has(v Node) bool {
	w := int(v / 64)
	return w < len(s.touched) && s.touched[w]&(1<<(v%64)) != 0
}

// find returns the index of v in srcs, or -1 if v is untouched.
func (s *ovSide) find(v Node) int {
	if !s.has(v) {
		return -1
	}
	i, _ := slices.BinarySearch(s.srcs, v)
	return i
}

// Entries returns the side's total delta entries (inserts + delete pairs).
func (s *ovSide) Entries() int64 { return s.entOff[len(s.entOff)-1] }

// sideOp is one batch entry keyed for one direction: v is the row the
// entry lands in (the source on the out side, the destination on the in
// side) and nbr the other endpoint. Weights are already clamped.
type sideOp struct {
	v, nbr Node
	w      uint32
	del    bool
}

// sortOps orders a batch by (row, neighbor), stably: parallel inserts of
// one pair keep their arrival order — the tie rule Materialize and the
// cursor share.
func sortOps(ops []sideOp) {
	slices.SortStableFunc(ops, func(a, b sideOp) int {
		return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.nbr, b.nbr))
	})
}

// merge folds one sorted batch into the side and returns the new side (s
// is not modified; the two share nothing) plus the rows whose degree
// changed, ascending. It is one pass over the prior side and the batch in
// (row, neighbor) order: rows the batch does not name carry over whole, and
// within a named row the prior entries between the batch's pairs carry over
// in runs. Per pair: the prior inserted copies come first and the batch's
// inserts follow in arrival order; a delete strips every inserted copy and
// marks the pair dead iff the base holds copies that were still live; a row
// whose entries all cancel leaves srcs. baseCopies counts the base's copies
// of (row, neighbor). A validated batch never both inserts and deletes one
// pair and never deletes a pair twice, so the batch entries of one pair are
// either all inserts or one delete.
func (s *ovSide) merge(ops []sideOp, baseEdges int64, weighted bool, baseCopies func(v, nbr Node) int64) (ovSide, []Node) {
	rows := len(s.srcs) + len(ops)
	n := ovSide{
		srcs:     make([]Node, 0, rows),
		insOff:   make([]int32, 1, rows+1),
		insDst:   make([]Node, 0, len(s.insDst)+len(ops)),
		delOff:   make([]int32, 1, rows+1),
		delDst:   make([]Node, 0, len(s.delDst)+len(ops)),
		delSlots: make([]int32, 0, rows),
		entOff:   make([]int64, 1, rows+1),
	}
	if weighted {
		n.insW = make([]uint32, 0, cap(n.insDst))
	}
	changed := []Node{}
	var slots int64
	for pi := 0; pi < len(s.srcs) || len(ops) > 0; {
		// The next row is the smaller of the prior side's next touched
		// vertex and the batch's next row; it may be both. ins, insW and
		// dels are what is left of the prior row, consumed from the front.
		var v Node
		var ins, dels []Node
		var insW []uint32
		var rowSlots int32
		if pi < len(s.srcs) && (len(ops) == 0 || s.srcs[pi] <= ops[0].v) {
			v, rowSlots = s.srcs[pi], s.delSlots[pi]
			ins, dels = s.insDst[s.insOff[pi]:s.insOff[pi+1]], s.delDst[s.delOff[pi]:s.delOff[pi+1]]
			if weighted {
				insW = s.insW[s.insOff[pi]:s.insOff[pi+1]]
			}
			pi++
		} else {
			v = ops[0].v
		}
		k := 0
		for k < len(ops) && ops[k].v == v {
			k++
		}
		row := ops[:k]
		ops = ops[k:]
		// carry moves the prior row's next i inserts and j dead pairs over.
		carry := func(i, j int) {
			n.insDst, n.delDst = append(n.insDst, ins[:i]...), append(n.delDst, dels[:j]...)
			if weighted {
				n.insW, insW = append(n.insW, insW[:i]...), insW[i:]
			}
			ins, dels = ins[i:], dels[j:]
		}
		var net int64
		for len(row) > 0 {
			d := row[0].nbr
			i, _ := slices.BinarySearch(ins, d)
			j, dead := slices.BinarySearch(dels, d)
			carry(i, j) // everything below the pair; a dead d itself stays queued
			copies, m := 0, 1
			for copies < len(ins) && ins[copies] == d {
				copies++
			}
			for m < len(row) && row[m].nbr == d {
				m++
			}
			if row[0].del {
				ins = ins[copies:]
				if weighted {
					insW = insW[copies:]
				}
				net -= int64(copies)
				if !dead {
					if c := baseCopies(v, d); c > 0 {
						n.delDst = append(n.delDst, d)
						rowSlots += int32(c)
						net -= c
					}
				}
			} else {
				carry(copies, 0)
				for _, op := range row[:m] {
					n.insDst = append(n.insDst, op.nbr)
					if weighted {
						n.insW = append(n.insW, op.w)
					}
				}
				net += int64(m)
			}
			row = row[m:]
		}
		carry(len(ins), len(dels))
		if net != 0 {
			changed = append(changed, v)
		}

		last := len(n.srcs)
		rowIns, rowDels := int32(len(n.insDst))-n.insOff[last], int32(len(n.delDst))-n.delOff[last]
		if rowIns == 0 && rowDels == 0 {
			continue // every entry cancelled
		}
		n.srcs = append(n.srcs, v)
		n.insOff = append(n.insOff, int32(len(n.insDst)))
		n.delOff = append(n.delOff, int32(len(n.delDst)))
		n.delSlots = append(n.delSlots, rowSlots)
		n.entOff = append(n.entOff, n.entOff[last]+int64(rowIns)+int64(rowDels))
		slots += int64(rowSlots)
	}
	n.edges = baseEdges + int64(len(n.insDst)) - slots
	if k := len(n.srcs); k > 0 {
		n.touched = make([]uint64, n.srcs[k-1]/64+1)
		for _, v := range n.srcs {
			n.touched[v/64] |= 1 << (v % 64)
		}
	}
	return n, changed
}

// Overlay is a sealed base graph plus one applied delta, held as its two
// sorted sides and nothing else. It is immutable: Apply merges a further
// batch into a NEW Overlay over the same base, so in-flight readers of
// prior epochs stay valid.
type Overlay struct {
	base     *Graph
	weighted bool

	out ovSide
	in  ovSide // maintained iff the base's transpose existed at NewOverlay
}

// NewOverlay returns the empty overlay over base (the identity epoch:
// iteration, degrees and weights match base exactly).
func NewOverlay(base *Graph) *Overlay {
	ov := &Overlay{base: base, weighted: base.HasWeights()}
	ov.out, _ = (&ovSide{}).merge(nil, base.NumEdges(), ov.weighted, nil)
	if base.HasIn() {
		ov.in, _ = (&ovSide{}).merge(nil, int64(len(base.InEdges)), ov.weighted, nil)
	}
	return ov
}

// ApplyOverlay validates ups against base and returns the overlay holding
// that one batch, plus the batch's Delta.
func ApplyOverlay(base *Graph, ups []EdgeUpdate) (*Overlay, Delta, error) {
	return NewOverlay(base).Apply(ups)
}

// Base returns the sealed base graph the overlay layers over.
func (ov *Overlay) Base() *Graph { return ov.base }

// Weighted reports whether edges carry weights (decided by the base).
func (ov *Overlay) Weighted() bool { return ov.weighted }

// NumNodes returns the vertex count (updates never grow the vertex set).
func (ov *Overlay) NumNodes() int { return ov.base.NumNodes() }

// NumEdges returns the merged edge count.
func (ov *Overlay) NumEdges() int64 { return ov.out.edges }

// Entries returns the out-side delta entries (inserts + delete pairs):
// the |overlay| the compaction threshold compares against |E|.
func (ov *Overlay) Entries() int64 { return ov.out.Entries() }

// HasIn reports whether the in-direction delta exists: it does iff the
// base's transpose was built when the overlay chain was started (a
// transpose added to the base afterwards cannot be caught up with).
func (ov *Overlay) HasIn() bool { return len(ov.in.entOff) > 0 }

// mergedOutCopies counts the copies of (s, d) visible through the overlay:
// the base's unless the pair is dead, plus the inserted ones — three binary
// searches in s's out-side row.
func (ov *Overlay) mergedOutCopies(s, d Node) int64 {
	i := ov.out.find(s)
	if i < 0 {
		return ov.base.outCopies(s, d)
	}
	n := countEqual(ov.out.insDst[ov.out.insOff[i]:ov.out.insOff[i+1]], d)
	if _, dead := slices.BinarySearch(ov.out.delDst[ov.out.delOff[i]:ov.out.delOff[i+1]], d); !dead {
		n += ov.base.outCopies(s, d)
	}
	return n
}

// OutDegree returns the merged out-degree of v.
func (ov *Overlay) OutDegree(v Node) int64 { return ov.out.degree(ov.base.OutDegree(v), v) }

// InDegree returns the merged in-degree of v; the in-side delta must exist.
func (ov *Overlay) InDegree(v Node) int64 { return ov.in.degree(ov.base.InDegree(v), v) }

func (s *ovSide) degree(base int64, v Node) int64 {
	i := s.find(v)
	if i < 0 {
		return base
	}
	return base + int64(s.insOff[i+1]-s.insOff[i]) - int64(s.delSlots[i])
}

// MaxOutDegreeNode returns the first vertex of maximum merged out-degree
// and its degree, matching the Graph method's tie rule exactly (kernel
// source selection must agree between an overlay epoch and its rebuild).
// O(V·log |delta|), used once per epoch for kernel parameter defaults.
func (ov *Overlay) MaxOutDegreeNode() (Node, int64) {
	var best Node
	bestDeg := int64(-1)
	for v := 0; v < ov.NumNodes(); v++ {
		if d := ov.OutDegree(Node(v)); d > bestDeg {
			bestDeg = d
			best = Node(v)
		}
	}
	return best, bestDeg
}

// Apply validates ups against the merged view and merges it into a NEW
// overlay over the same base, plus the batch's Delta (relative to the
// pre-batch merged state, exactly what ApplyUpdates would report). The
// batch is sorted once per direction and each side is produced by one
// linear merge of the prior side with it (ovSide.merge), so a batch costs
// O(|delta| + batch·(log batch + log d)) — linear in the delta accumulated
// so far, and the base is never rescanned. The Delta falls out of the same
// sorted batch.
func (ov *Overlay) Apply(ups []EdgeUpdate) (*Overlay, Delta, error) {
	if err := validateUpdates(ov.NumNodes(), ov.weighted, ov.mergedOutCopies, ups); err != nil {
		return nil, Delta{}, err
	}
	delta := Delta{Dsts: make([]Node, len(ups))}
	ops := make([]sideOp, len(ups))
	for i, u := range ups {
		delta.Dsts[i] = u.Dst
		ops[i] = sideOp{v: u.Src, nbr: u.Dst, del: u.Op == OpDelete}
		if ops[i].del {
			delta.Deletes++
			continue
		}
		delta.Inserts++
		if ops[i].w = u.Weight; ov.weighted && u.Weight == 0 {
			ops[i].w = 1
		}
	}
	delta.HasDeletes = delta.Deletes > 0
	slices.Sort(delta.Dsts)
	delta.Dsts = slices.Compact(delta.Dsts)

	nov := &Overlay{base: ov.base, weighted: ov.weighted}
	sortOps(ops)
	nov.out, delta.DegChanged = ov.out.merge(ops, ov.base.NumEdges(), ov.weighted, ov.base.outCopies)
	for _, op := range ops {
		if !op.del {
			delta.Inserted = append(delta.Inserted, Edge{Src: op.v, Dst: op.nbr, Weight: op.w})
		}
	}
	if ov.HasIn() {
		// Re-keyed by destination and re-sorted stably, parallel copies of a
		// pair keep the arrival order the out-side sort preserved.
		for i := range ops {
			ops[i].v, ops[i].nbr = ops[i].nbr, ops[i].v
		}
		sortOps(ops)
		nov.in, _ = ov.in.merge(ops, int64(len(ov.base.InEdges)), ov.weighted, ov.base.inCopies)
	}
	return nov, delta, nil
}

// inCopies is outCopies over the transpose (in-rows are sorted by source:
// BuildIn's counting sort visits sources in ascending order).
func (g *Graph) inCopies(d, s Node) int64 {
	return countEqual(g.InEdges[g.InOffsets[d]:g.InOffsets[d+1]], s)
}

// Materialize merges the overlay into a plain CSR graph: per source, base
// edges in base order minus deleted pairs, with inserted copies merged in
// by destination (after surviving base copies of an equal pair). This is
// the compaction/checkpoint path, and — because ApplyUpdates rebuilds
// through it — the ordering oracle overlay cursors are conformance-tested
// against. The transpose and compressed forms are not built (the caller
// seals). O(V + E + |delta|).
func (ov *Overlay) Materialize() *Graph {
	base := ov.base
	n := base.NumNodes()
	g := &Graph{
		OutOffsets: make([]int64, n+1),
		OutEdges:   make([]Node, 0, ov.out.edges),
	}
	if ov.weighted {
		g.OutWeights = make([]uint32, 0, ov.out.edges)
	}
	ti := 0 // next touched index
	for v := 0; v < n; v++ {
		lo, hi := base.OutOffsets[v], base.OutOffsets[v+1]
		if ti >= len(ov.out.srcs) || ov.out.srcs[ti] != Node(v) {
			g.OutEdges = append(g.OutEdges, base.OutEdges[lo:hi]...)
			if ov.weighted {
				g.OutWeights = append(g.OutWeights, base.OutWeights[lo:hi]...)
			}
			g.OutOffsets[v+1] = int64(len(g.OutEdges))
			continue
		}
		ins := ov.out.insDst[ov.out.insOff[ti]:ov.out.insOff[ti+1]]
		var insW []uint32
		if ov.weighted {
			insW = ov.out.insW[ov.out.insOff[ti]:ov.out.insOff[ti+1]]
		}
		dels := ov.out.delDst[ov.out.delOff[ti]:ov.out.delOff[ti+1]]
		ti++
		di, ii := 0, 0
		for i := lo; i < hi; i++ {
			d := base.OutEdges[i]
			for di < len(dels) && dels[di] < d {
				di++
			}
			if di < len(dels) && dels[di] == d {
				continue // deleted copy
			}
			for ii < len(ins) && ins[ii] < d {
				g.OutEdges = append(g.OutEdges, ins[ii])
				if ov.weighted {
					g.OutWeights = append(g.OutWeights, insW[ii])
				}
				ii++
			}
			g.OutEdges = append(g.OutEdges, d)
			if ov.weighted {
				g.OutWeights = append(g.OutWeights, base.OutWeights[i])
			}
		}
		g.OutEdges = append(g.OutEdges, ins[ii:]...)
		if ov.weighted {
			g.OutWeights = append(g.OutWeights, insW[ii:]...)
		}
		g.OutOffsets[v+1] = int64(len(g.OutEdges))
	}
	return g
}

// OverlayAdj adapts one direction of an Overlay to the Adjacency seam over
// a chosen base representation (raw slices or compressed blocks). Base
// metadata — Base, Extent, ExtentRange — keeps BASE semantics, because
// that is what charging consumes (the base block must be streamed and
// decoded whole regardless of the delta); merged semantics live in
// Degree, NumEdges and the Cursor. Operator edge indices come from
// Cursor.EI, never Base(v)+k, under the overlay ei contract.
type OverlayAdj struct {
	ov        *Overlay
	side      *ovSide
	base      Adjacency
	baseEdges int64    // the side's base edge count: ei base for inserts
	baseW     []uint32 // the base's weights in this direction
}

// OutAdj returns the out-direction Adjacency over the raw or compressed
// base representation.
func (ov *Overlay) OutAdj(compressed bool) *OverlayAdj {
	var base Adjacency = ov.base.RawOut()
	if compressed {
		base = ov.base.CompressOut()
	}
	return &OverlayAdj{ov: ov, side: &ov.out, base: base, baseEdges: ov.base.NumEdges(), baseW: ov.base.OutWeights}
}

// InAdj is OutAdj for the transpose; the base must have it built.
func (ov *Overlay) InAdj(compressed bool) *OverlayAdj {
	if !ov.HasIn() {
		panic("graph: overlay InAdj requires the base transpose")
	}
	var base Adjacency = ov.base.RawIn()
	if compressed {
		base = ov.base.CompressIn()
	}
	return &OverlayAdj{ov: ov, side: &ov.in, base: base, baseEdges: int64(len(ov.base.InEdges)), baseW: ov.base.InWeights}
}

func (a *OverlayAdj) NumNodes() int   { return a.base.NumNodes() }
func (a *OverlayAdj) NumEdges() int64 { return a.side.edges }
func (a *OverlayAdj) Degree(v Node) int64 {
	return a.side.degree(a.base.Degree(v), v)
}
func (a *OverlayAdj) Base(v Node) int64            { return a.base.Base(v) }
func (a *OverlayAdj) Extent(v Node) (int64, int64) { return a.base.Extent(v) }
func (a *OverlayAdj) ExtentRange(lo, hi Node) (int64, int64) {
	return a.base.ExtentRange(lo, hi)
}

// Weight returns the weight of the edge a Cursor reports as ei, in this
// adapter's direction: the base's weight for a base edge index, the
// insert's for |E_base| + its position.
func (a *OverlayAdj) Weight(ei int64) uint32 {
	if ei >= a.baseEdges {
		return a.side.insW[ei-a.baseEdges]
	}
	return a.baseW[ei]
}

// Touched reports whether the delta touches v, i.e. whether v's Cursor
// merges the delta into the base row. It is one bit test.
func (a *OverlayAdj) Touched(v Node) bool { return a.side.has(v) }

// BaseDegree returns v's degree in the base alone (the decode charge of a
// compressed base block).
func (a *OverlayAdj) BaseDegree(v Node) int64 { return a.base.Degree(v) }

// DeltaExtent returns v's entry range in the side's delta array (both
// zero for untouched vertices) — the honest-charging counterpart of
// Extent for the overlay's own storage.
func (a *OverlayAdj) DeltaExtent(v Node) (int64, int64) {
	i := a.side.find(v)
	if i < 0 {
		return 0, 0
	}
	return a.side.entOff[i], a.side.entOff[i+1]
}

// DeltaExtentRange is DeltaExtent over the vertex range [lo, hi).
func (a *OverlayAdj) DeltaExtentRange(lo, hi Node) (int64, int64) {
	s := a.side
	i, _ := slices.BinarySearch(s.srcs, lo)
	j, _ := slices.BinarySearch(s.srcs, hi)
	return s.entOff[i], s.entOff[j]
}

// DegreeRange returns the merged edge count of the vertex range [lo, hi):
// the base's, plus the inserts of every touched vertex in it, less its
// deleted base slots.
func (a *OverlayAdj) DegreeRange(lo, hi Node) int64 {
	s := a.side
	i, _ := slices.BinarySearch(s.srcs, lo)
	j, _ := slices.BinarySearch(s.srcs, hi)
	n := a.base.Base(hi) - a.base.Base(lo) + int64(s.insOff[j]-s.insOff[i])
	for _, d := range s.delSlots[i:j] {
		n -= int64(d)
	}
	return n
}

// DeltaEntries returns the side's total delta entries (the length of the
// simulated delta array a runtime allocates for it).
func (a *OverlayAdj) DeltaEntries() int64 { return a.side.Entries() }

// Cursor returns the merged iterator: the base row (the same raw row
// under either base representation) with deleted pairs filtered, merged
// against the sorted insert list by destination, base copies first on
// ties. EI tracks the overlay ei contract edge index of the last yielded
// neighbor.
func (a *OverlayAdj) Cursor(v Node) Cursor {
	return a.cursor(v, a.side.find(v))
}

// cursor is Cursor for v at touched index i (negative when untouched).
func (a *OverlayAdj) cursor(v Node, i int) Cursor {
	c := a.base.Cursor(v)
	if i < 0 {
		return c
	}
	c.ov = true
	c.ovIns = a.side.insDst[a.side.insOff[i]:a.side.insOff[i+1]]
	c.ovInsEI = a.baseEdges + int64(a.side.insOff[i])
	c.ovDel = a.side.delDst[a.side.delOff[i]:a.side.delOff[i+1]]
	return c
}

// Validate checks overlay structural invariants (sorted touched lists,
// consistent offsets, edge accounting); it is a test/debug aid, not a hot
// path.
func (ov *Overlay) Validate() error {
	check := func(name string, s *ovSide, baseEdges int64) error {
		k := len(s.srcs)
		if len(s.insOff) != k+1 || len(s.delOff) != k+1 || len(s.entOff) != k+1 || len(s.delSlots) != k {
			return fmt.Errorf("graph: overlay %s side: inconsistent offset lengths", name)
		}
		var slots int64
		set := 0
		for _, w := range s.touched {
			set += bits.OnesCount64(w)
		}
		if set != k {
			return fmt.Errorf("graph: overlay %s side: touched bitset holds %d vertices, list %d", name, set, k)
		}
		for i := 0; i < k; i++ {
			if i > 0 && s.srcs[i] <= s.srcs[i-1] {
				return fmt.Errorf("graph: overlay %s side: touched vertices not strictly sorted", name)
			}
			if !s.has(s.srcs[i]) {
				return fmt.Errorf("graph: overlay %s side: touched vertex %d missing from the bitset", name, s.srcs[i])
			}
			slots += int64(s.delSlots[i])
		}
		if got := baseEdges + int64(len(s.insDst)) - slots; got != s.edges {
			return fmt.Errorf("graph: overlay %s side: edge accounting %d != %d", name, got, s.edges)
		}
		return nil
	}
	if err := check("out", &ov.out, ov.base.NumEdges()); err != nil {
		return err
	}
	if ov.HasIn() {
		if err := check("in", &ov.in, int64(len(ov.base.InEdges))); err != nil {
			return err
		}
		if ov.in.edges != ov.out.edges {
			return fmt.Errorf("graph: overlay direction edge counts differ: out %d, in %d", ov.out.edges, ov.in.edges)
		}
	}
	return nil
}
