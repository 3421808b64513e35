package graph

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// walkCursor drains an OverlayAdj cursor, returning the merged neighbor
// list and the ei contract index of every yielded edge.
func walkCursor(a *OverlayAdj, v Node) ([]Node, []int64) {
	var nbrs []Node
	var eis []int64
	c := a.Cursor(v)
	for {
		d, ok := c.Next()
		if !ok {
			return nbrs, eis
		}
		nbrs = append(nbrs, d)
		eis = append(eis, c.EI())
	}
}

func TestNewOverlayIdentity(t *testing.T) {
	g := updateTestGraph(t, true)
	g.BuildIn()
	ov := NewOverlay(g)
	if err := ov.Validate(); err != nil {
		t.Fatal(err)
	}
	if ov.NumEdges() != g.NumEdges() || ov.Entries() != 0 {
		t.Fatalf("identity overlay: edges %d entries %d", ov.NumEdges(), ov.Entries())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if ov.OutDegree(Node(v)) != g.OutDegree(Node(v)) {
			t.Fatalf("OutDegree(%d) = %d, want %d", v, ov.OutDegree(Node(v)), g.OutDegree(Node(v)))
		}
		nbrs, eis := walkCursor(ov.OutAdj(false), Node(v))
		if want := g.OutNeighbors(Node(v)); len(nbrs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(nbrs, want)) {
			t.Fatalf("cursor(%d) = %v, want %v", v, nbrs, want)
		}
		for i, ei := range eis {
			if ei != g.OutOffsets[v]+int64(i) {
				t.Fatalf("vertex %d edge %d: ei = %d, want base index %d", v, i, ei, g.OutOffsets[v]+int64(i))
			}
		}
	}
	m := ov.Materialize()
	if !reflect.DeepEqual(m.OutOffsets, g.OutOffsets) || !reflect.DeepEqual(m.OutEdges, g.OutEdges) ||
		!reflect.DeepEqual(m.OutWeights, g.OutWeights) {
		t.Fatal("identity Materialize differs from base")
	}
}

func TestOverlayCursorEIContract(t *testing.T) {
	g := updateTestGraph(t, true) // 0:{1,2} 1:{2} 2:{0,3} 3:{3}; 6 edges
	ov, _, err := ApplyOverlay(g, []EdgeUpdate{
		{Op: OpInsert, Src: 0, Dst: 4, Weight: 70},
		{Op: OpInsert, Src: 0, Dst: 0, Weight: 80},
		{Op: OpDelete, Src: 0, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	nbrs, eis := walkCursor(ov.OutAdj(false), 0)
	// Inserts sort to [0, 4]; base row [1, 2] loses 2.
	if !reflect.DeepEqual(nbrs, []Node{0, 1, 4}) {
		t.Fatalf("merged row = %v, want [0 1 4]", nbrs)
	}
	// Insert 0 is the 0th sorted insert (ei 6+0), base edge 1 keeps base
	// index 0, insert 4 is the 1st sorted insert (ei 6+1). The deleted
	// base slot's index 1 is never re-yielded.
	if !reflect.DeepEqual(eis, []int64{6, 0, 7}) {
		t.Fatalf("ei = %v, want [6 0 7]", eis)
	}
	out := ov.OutAdj(false)
	if w := []uint32{out.Weight(eis[0]), out.Weight(eis[1]), out.Weight(eis[2])}; !reflect.DeepEqual(w, []uint32{80, 10, 70}) {
		t.Fatalf("weights by ei = %v, want [80 10 70]", w)
	}
}

func TestOverlayInsertAfterDeleteKeepsBaseCopiesDead(t *testing.T) {
	g := MustFromEdges(3, []Edge{{0, 1, 0}, {0, 1, 0}, {1, 2, 0}}, false, false)
	ov1, _, err := ApplyOverlay(g, []EdgeUpdate{{Op: OpDelete, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ov1.OutDegree(0) != 0 {
		t.Fatalf("delete left copies: degree %d", ov1.OutDegree(0))
	}
	ov2, _, err := ov1.Apply([]EdgeUpdate{{Op: OpInsert, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ov2.OutDegree(0) != 1 {
		t.Fatalf("insert-after-delete: degree %d, want 1 (base copies stay dead)", ov2.OutDegree(0))
	}
	if m := ov2.Materialize(); !reflect.DeepEqual(m.OutNeighbors(0), []Node{1}) {
		t.Fatalf("materialized row %v, want [1]", m.OutNeighbors(0))
	}
}

func TestOverlayDeleteOfInsertedStrips(t *testing.T) {
	g := MustFromEdges(3, []Edge{{1, 2, 0}}, false, false)
	ov, _, err := ApplyOverlay(g, []EdgeUpdate{{Op: OpInsert, Src: 0, Dst: 1}, {Op: OpInsert, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ov, _, err = ov.Apply([]EdgeUpdate{{Op: OpDelete, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ov.OutDegree(0) != 0 {
		t.Fatalf("delete of inserted pair left %d copies", ov.OutDegree(0))
	}
	// The pair had no base copies, so it must not be remembered as dead:
	// a fresh insert resurfaces it.
	ov, _, err = ov.Apply([]EdgeUpdate{{Op: OpInsert, Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ov.OutDegree(0) != 1 {
		t.Fatalf("re-insert after strip: degree %d, want 1", ov.OutDegree(0))
	}
	if err := ov.Validate(); err != nil {
		t.Fatal(err)
	}
}

// edgeModel is the by-definition oracle for update semantics, sharing no
// code with the overlay: the graph as one edge list — the base's edges in
// base CSR order, then every surviving inserted copy in arrival order. An
// insert appends, a delete removes every copy of its pair, and adjacency is
// read off by a stable sort, which is exactly "surviving base edges in base
// order, inserted copies of an equal pair after them in arrival order".
type edgeModel struct {
	n        int
	weighted bool
	edges    []Edge
}

func newEdgeModel(base *Graph) *edgeModel {
	m := &edgeModel{n: base.NumNodes(), weighted: base.HasWeights()}
	for v := 0; v < m.n; v++ {
		for i := base.OutOffsets[v]; i < base.OutOffsets[v+1]; i++ {
			e := Edge{Src: Node(v), Dst: base.OutEdges[i]}
			if m.weighted {
				e.Weight = base.OutWeights[i]
			}
			m.edges = append(m.edges, e)
		}
	}
	return m
}

func (m *edgeModel) outDegrees() []int {
	deg := make([]int, m.n)
	for _, e := range m.edges {
		deg[e.Src]++
	}
	return deg
}

// apply applies one (valid) batch and returns the Delta it must report.
func (m *edgeModel) apply(ups []EdgeUpdate) Delta {
	before := m.outDegrees()
	d := Delta{}
	for _, u := range ups {
		d.Dsts = append(d.Dsts, u.Dst)
		if u.Op == OpDelete {
			d.Deletes++
			d.HasDeletes = true
			m.edges = slices.DeleteFunc(m.edges, func(e Edge) bool { return e.Src == u.Src && e.Dst == u.Dst })
			continue
		}
		d.Inserts++
		e := Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight}
		if m.weighted && e.Weight == 0 {
			e.Weight = 1
		}
		m.edges = append(m.edges, e)
		d.Inserted = append(d.Inserted, e)
	}
	slices.Sort(d.Dsts)
	d.Dsts = slices.Compact(d.Dsts)
	for v, deg := range m.outDegrees() {
		if deg != before[v] {
			d.DegChanged = append(d.DegChanged, Node(v))
		}
	}
	slices.SortStableFunc(d.Inserted, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	return d
}

// graph renders the model as a CSR with both directions, each row by
// definition: the edges leaving (entering) v, stably sorted by the other
// endpoint.
func (m *edgeModel) graph() *Graph {
	g := &Graph{OutOffsets: make([]int64, m.n+1), InOffsets: make([]int64, m.n+1), OutEdges: []Node{}, InEdges: []Node{}}
	if m.weighted {
		g.OutWeights, g.InWeights = []uint32{}, []uint32{}
	}
	for v := 0; v < m.n; v++ {
		var out, in []Edge
		for _, e := range m.edges {
			if e.Src == Node(v) {
				out = append(out, e)
			}
			if e.Dst == Node(v) {
				in = append(in, e)
			}
		}
		slices.SortStableFunc(out, func(a, b Edge) int { return cmp.Compare(a.Dst, b.Dst) })
		slices.SortStableFunc(in, func(a, b Edge) int { return cmp.Compare(a.Src, b.Src) })
		for _, e := range out {
			g.OutEdges = append(g.OutEdges, e.Dst)
			if m.weighted {
				g.OutWeights = append(g.OutWeights, e.Weight)
			}
		}
		for _, e := range in {
			g.InEdges = append(g.InEdges, e.Src)
			if m.weighted {
				g.InWeights = append(g.InWeights, e.Weight)
			}
		}
		g.OutOffsets[v+1], g.InOffsets[v+1] = int64(len(g.OutEdges)), int64(len(g.InEdges))
	}
	return g
}

// TestOverlayChainMatchesRebuildChain is the core conformance property: a
// chain of batches folded into one overlay presents adjacency, degrees,
// weights, edge counts, the max-degree source and every Delta field exactly
// as the by-definition edge-list model does, in both directions and over
// both base representations; the same batches applied as merge rebuilds
// (ApplyUpdates) and the chain's final Materialize reproduce the model's
// CSR exactly. The long chain on a tiny dense graph keeps every merge case
// hot: stripping inserted copies, re-inserting after a delete, parallel
// copies, and vertices whose entries all cancel.
func TestOverlayChainMatchesRebuildChain(t *testing.T) {
	shapes := []struct {
		name                   string
		n, edges, batches, per int
	}{
		{"sparse", 40, 160, 6, 12},
		{"dense-long", 8, 10, 96, 5},
	}
	for _, weighted := range []bool{false, true} {
		name := "unweighted"
		if weighted {
			name = "weighted"
		}
		t.Run(name, func(t *testing.T) {
			for _, shape := range shapes {
				t.Run(shape.name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(0xC0FFEE))
					edges := make([]Edge, 0, shape.edges)
					for i := 0; i < shape.edges; i++ {
						e := Edge{Src: Node(rng.Intn(shape.n)), Dst: Node(rng.Intn(shape.n))}
						if weighted {
							e.Weight = uint32(1 + rng.Intn(63))
						}
						edges = append(edges, e)
					}
					base := MustFromEdges(shape.n, edges, weighted, false)
					base.BuildIn()
					base.CompressOut()
					base.CompressIn()

					model := newEdgeModel(base)
					ov := NewOverlay(base)
					cur := base
					want := model.graph()
					for batch := 0; batch < shape.batches; batch++ {
						ups := randomBatch(rng, want, shape.per, weighted)
						var err error
						var ovDelta, gDelta Delta
						ov, ovDelta, err = ov.Apply(ups)
						if err != nil {
							t.Fatalf("batch %d: overlay apply: %v", batch, err)
						}
						cur, gDelta, err = ApplyUpdates(cur, ups)
						if err != nil {
							t.Fatalf("batch %d: rebuild apply: %v", batch, err)
						}
						wantDelta := model.apply(ups)
						want = model.graph()
						for _, got := range []Delta{ovDelta, gDelta} {
							if got.Inserts != wantDelta.Inserts || got.Deletes != wantDelta.Deletes || got.HasDeletes != wantDelta.HasDeletes ||
								!slices.Equal(got.Dsts, wantDelta.Dsts) || !slices.Equal(got.DegChanged, wantDelta.DegChanged) ||
								!slices.Equal(got.Inserted, wantDelta.Inserted) {
								t.Fatalf("batch %d: delta\n got %+v\nwant %+v", batch, got, wantDelta)
							}
						}
						if err := ov.Validate(); err != nil {
							t.Fatalf("batch %d: %v", batch, err)
						}
						compareOverlay(t, ov, want, weighted)
						if !slices.Equal(cur.OutOffsets, want.OutOffsets) || !slices.Equal(cur.OutEdges, want.OutEdges) ||
							!slices.Equal(cur.OutWeights, want.OutWeights) {
							t.Fatalf("batch %d: merge rebuild differs from the model", batch)
						}
					}

					m := ov.Materialize()
					if !slices.Equal(m.OutOffsets, want.OutOffsets) || !slices.Equal(m.OutEdges, want.OutEdges) ||
						!slices.Equal(m.OutWeights, want.OutWeights) {
						t.Fatal("Materialize of chained overlay differs from the model")
					}
				})
			}
		})
	}
}

// randomBatch builds a valid update batch against g: ~3/4 inserts (which
// may create parallel copies) and ~1/4 deletes of existing pairs, obeying
// the batch-conflict rules ValidateUpdates enforces.
func randomBatch(rng *rand.Rand, g *Graph, size int, weighted bool) []EdgeUpdate {
	used := make(map[uint64]UpdateOp, size)
	var ups []EdgeUpdate
	for len(ups) < size {
		s, d := Node(rng.Intn(g.NumNodes())), Node(rng.Intn(g.NumNodes()))
		k := pairKey(s, d)
		if rng.Intn(4) == 0 {
			if _, taken := used[k]; taken || g.outCopies(s, d) == 0 {
				continue
			}
			used[k] = OpDelete
			ups = append(ups, EdgeUpdate{Op: OpDelete, Src: s, Dst: d})
			continue
		}
		if op, taken := used[k]; taken && op == OpDelete {
			continue
		}
		used[k] = OpInsert
		u := EdgeUpdate{Op: OpInsert, Src: s, Dst: d}
		if weighted {
			u.Weight = uint32(1 + rng.Intn(63))
		}
		ups = append(ups, u)
	}
	return ups
}

// compareOverlay asserts ov presents want's adjacency exactly, walking
// every vertex in both directions over both base representations.
func compareOverlay(t *testing.T, ov *Overlay, want *Graph, weighted bool) {
	t.Helper()
	if ov.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", ov.NumEdges(), want.NumEdges())
	}
	os, od := ov.MaxOutDegreeNode()
	ws, wd := want.MaxOutDegreeNode()
	if os != ws || od != wd {
		t.Fatalf("MaxOutDegreeNode = (%d, %d), want (%d, %d)", os, od, ws, wd)
	}
	dirs := []struct {
		name    string
		adj     func(compressed bool) *OverlayAdj
		deg     func(v Node) int64
		wantDeg func(v Node) int64
		nbrs    func(v Node) []Node
		wantW   func(v Node) []uint32
	}{
		{"out", ov.OutAdj, ov.OutDegree, want.OutDegree, want.OutNeighbors, want.OutWeightsOf},
		{"in", ov.InAdj, ov.InDegree, want.InDegree, want.InNeighbors, want.InWeightsOf},
	}
	for _, dir := range dirs {
		for _, compressed := range []bool{false, true} {
			a := dir.adj(compressed)
			for v := 0; v < want.NumNodes(); v++ {
				node := Node(v)
				if got, w := dir.deg(node), dir.wantDeg(node); got != w {
					t.Fatalf("%s degree(%d) z=%v = %d, want %d", dir.name, v, compressed, got, w)
				}
				nbrs, eis := walkCursor(a, node)
				wantN := dir.nbrs(node)
				if int64(len(nbrs)) != a.Degree(node) {
					t.Fatalf("%s cursor(%d) z=%v yielded %d, Degree says %d", dir.name, v, compressed, len(nbrs), a.Degree(node))
				}
				if len(nbrs) != len(wantN) || (len(wantN) > 0 && !reflect.DeepEqual(nbrs, wantN)) {
					t.Fatalf("%s cursor(%d) z=%v = %v, want %v", dir.name, v, compressed, nbrs, wantN)
				}
				if weighted {
					wantW := dir.wantW(node)
					for i, ei := range eis {
						if got := a.Weight(ei); got != wantW[i] {
							t.Fatalf("%s weight(%d) edge %d z=%v = %d, want %d", dir.name, v, i, compressed, got, wantW[i])
						}
					}
				}
			}
		}
	}
}
