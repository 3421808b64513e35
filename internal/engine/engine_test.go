package engine

import (
	"sync/atomic"
	"testing"

	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// chain returns 0->1->...->n-1 plus a hub 0->v for every v, giving a mix
// of degrees.
func testGraph(n int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node(i + 1)})
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.Node(i + 1)})
	}
	return graph.MustFromEdges(n, edges, false, true)
}

func testEngine(t *testing.T, g *graph.Graph, cfg Config, bothDirs bool) *Engine {
	t.Helper()
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	opts := core.GaloisDefaults(4)
	opts.BothDirections = bothDirs
	r, err := core.New(m, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return New(r, cfg)
}

func TestFrontierRepresentationPolicy(t *testing.T) {
	g := testGraph(200)
	sparse := testEngine(t, g, Config{Rep: RepSparse}, false)
	if f := sparse.FullFrontier(); f.IsDense() {
		t.Error("RepSparse produced a dense full frontier")
	}
	dense := testEngine(t, g, Config{Rep: RepDense}, false)
	if f := dense.NewFrontier(3); !f.IsDense() {
		t.Error("RepDense produced a sparse frontier")
	}
	auto := testEngine(t, g, Config{Rep: RepAuto}, false)
	if f := auto.NewFrontier(5); f.IsDense() {
		t.Error("RepAuto made a single light vertex dense")
	}
	if f := auto.FullFrontier(); !f.IsDense() {
		t.Error("RepAuto kept the full frontier sparse")
	}
}

func TestFrontierHasAndVertices(t *testing.T) {
	g := testGraph(100)
	e := testEngine(t, g, Config{Rep: RepDense}, false)
	f := e.NewFrontier(2, 50, 97)
	for _, v := range []graph.Node{2, 50, 97} {
		if !f.Has(v) {
			t.Errorf("missing vertex %d", v)
		}
	}
	if f.Has(3) {
		t.Error("vertex 3 should be inactive")
	}
	vs := f.Vertices()
	if len(vs) != 3 || vs[0] != 2 || vs[1] != 50 || vs[2] != 97 {
		t.Errorf("Vertices() = %v, want [2 50 97]", vs)
	}
	if f.Count() != 3 {
		t.Errorf("Count = %d", f.Count())
	}
	wantOut := g.OutDegree(2) + g.OutDegree(50) + g.OutDegree(97)
	if f.OutEdges() != wantOut {
		t.Errorf("OutEdges = %d, want %d", f.OutEdges(), wantOut)
	}
}

// bfsWith runs a BFS over the engine with the given config, as row programs
// or (perEdge) as their per-edge forms, and returns the levels.
func bfsWith(t *testing.T, g *graph.Graph, cfg Config, bothDirs, perEdge bool) []uint32 {
	e := testEngine(t, g, cfg, bothDirs)
	n := g.NumNodes()
	dist := make([]atomic.Uint32, n)
	for i := 1; i < n; i++ {
		dist[i].Store(^uint32(0))
	}
	f := e.NewFrontier(0)
	level := uint32(0)
	for !f.Empty() {
		level++
		lvl := level
		cur := f
		args := EdgeMapArgs{
			PullCond: func(v graph.Node) bool { return dist[v].Load() == ^uint32(0) },
		}
		if perEdge {
			args.Push = func(u, d graph.Node, ei int64) bool {
				return dist[d].CompareAndSwap(^uint32(0), lvl)
			}
			args.Pull = func(v, u graph.Node, ei int64) (bool, bool) {
				if cur.Has(u) {
					dist[v].Store(lvl)
					return true, true
				}
				return false, false
			}
		} else {
			args.PushRow = func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				for _, d := range row {
					if dist[d].CompareAndSwap(^uint32(0), lvl) {
						claims = append(claims, d)
					}
				}
				return claims
			}
			args.PullRow = func(v graph.Node, row []graph.Node, _ []uint32) (bool, bool, int) {
				for k, u := range row {
					if cur.Has(u) {
						dist[v].Store(lvl)
						return true, true, k + 1
					}
				}
				return false, false, len(row)
			}
		}
		f = e.EdgeMap(f, args)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = dist[i].Load()
	}
	return out
}

func TestEdgeMapDirectionsAgree(t *testing.T) {
	g := testGraph(300)
	g.BuildIn()
	ref := bfsWith(t, g, Config{Rep: RepSparse, Dir: DirPush}, false, false)
	for name, cfg := range map[string]Config{
		"sparse-push": {Rep: RepSparse, Dir: DirPush},
		"dense-push":  {Rep: RepDense, Dir: DirPush},
		"dir-opt":     {Rep: RepDense, Dir: DirAuto},
		"pull-only":   {Rep: RepDense, Dir: DirPull},
		"hybrid":      {Rep: RepAuto, Dir: DirAuto},
	} {
		for _, perEdge := range []bool{false, true} {
			got := bfsWith(t, g, cfg, true, perEdge)
			for v := range ref {
				if got[v] != ref[v] {
					t.Fatalf("%s (per-edge %v): dist[%d] = %d, want %d", name, perEdge, v, got[v], ref[v])
				}
			}
		}
	}
}

func TestEdgeMapAutoConvertsRepresentation(t *testing.T) {
	// The hub graph floods from vertex 0: round 1 activates everything,
	// so an auto frontier must convert sparse -> dense, then back as the
	// frontier dies out.
	g := testGraph(500)
	e := testEngine(t, g, Config{Rep: RepAuto, Dir: DirPush}, false)
	visited := make([]atomic.Bool, g.NumNodes())
	visited[0].Store(true)
	f := e.NewFrontier(0)
	sawDense := false
	for !f.Empty() {
		f = e.EdgeMap(f, EdgeMapArgs{
			PushRow: func(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
				for _, d := range row {
					if !visited[d].Swap(true) {
						claims = append(claims, d)
					}
				}
				return claims
			},
		})
		sawDense = sawDense || f.IsDense()
	}
	if !sawDense {
		t.Error("auto frontier never converted to dense on a flood")
	}
	for v := range visited {
		if !visited[v].Load() {
			t.Errorf("vertex %d unreached", v)
		}
	}
	if len(e.Trace()) != e.Rounds() {
		t.Errorf("trace has %d entries for %d rounds", len(e.Trace()), e.Rounds())
	}
	for i, rs := range e.Trace() {
		if rs.Round != i+1 {
			t.Errorf("trace[%d].Round = %d", i, rs.Round)
		}
		if rs.Stats.ElapsedNs <= 0 {
			t.Errorf("round %d has no simulated time", rs.Round)
		}
	}
}

func TestEdgeMapSymmetricReachesPredecessors(t *testing.T) {
	// Directed path 0->1->2: a symmetric push from {1} must activate
	// both 0 and 2.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false, false)
	g.BuildIn()
	e := testEngine(t, g, Config{Rep: RepSparse, Dir: DirPush}, true)
	var hit [3]atomic.Bool
	f := e.NewFrontier(1)
	f = e.EdgeMap(f, EdgeMapArgs{
		Symmetric: true,
		PushRow: func(_ graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
			for _, d := range row {
				if !hit[d].Swap(true) {
					claims = append(claims, d)
				}
			}
			return claims
		},
	})
	if !hit[0].Load() || !hit[2].Load() {
		t.Errorf("symmetric push missed a neighbor: hit=[%v %v %v]",
			hit[0].Load(), hit[1].Load(), hit[2].Load())
	}
	if f.Count() != 2 {
		t.Errorf("next frontier = %d vertices, want 2", f.Count())
	}
}

func TestVertexFilterAndMap(t *testing.T) {
	g := testGraph(128)
	e := testEngine(t, g, Config{Rep: RepSparse}, false)
	vals := make([]int64, g.NumNodes())
	e.VertexMap(VertexMapArgs{
		Range: func(lo, hi graph.Node) {
			for v := lo; v < hi; v++ {
				vals[v] = int64(v) * 2
			}
		},
		Ops: true,
	})
	// The per-vertex form covers every vertex once too.
	calls := make([]int, g.NumNodes())
	e.VertexMap(VertexMapArgs{Fn: func(v graph.Node) { calls[v]++ }})
	for v, c := range calls {
		if c != 1 {
			t.Fatalf("Fn ran %d times on vertex %d", c, v)
		}
	}
	f := e.VertexFilter(VertexMapArgs{}, func(v graph.Node) bool { return vals[v]%4 == 0 })
	if f.Count() != 64 {
		t.Errorf("filter kept %d vertices, want 64", f.Count())
	}
	if !f.Has(0) || !f.Has(2) || f.Has(1) {
		t.Error("filter membership wrong")
	}
}

func TestTraversalName(t *testing.T) {
	g := testGraph(10)
	m := memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32))
	r := core.MustNew(m, g, core.GaloisDefaults(2))
	defer r.Close()
	if n := TraversalName(r, Config{Rep: RepSparse, Dir: DirPush}); n != "sparse-wl" {
		t.Errorf("sparse = %q", n)
	}
	if n := TraversalName(r, Config{Rep: RepDense, Dir: DirPush}); n != "dense-wl" {
		t.Errorf("dense = %q", n)
	}
	// DirAuto without a transpose degrades to push.
	if n := TraversalName(r, Config{Rep: RepAuto, Dir: DirAuto}); n != "hybrid-wl" {
		t.Errorf("hybrid = %q", n)
	}
	both := core.GaloisDefaults(2)
	both.BothDirections = true
	sealed := testGraph(10)
	sealed.BuildIn()
	r2 := core.MustNew(memsim.NewMachine(memsim.Scaled(memsim.OptaneMachine(), 32)), sealed, both)
	defer r2.Close()
	if n := TraversalName(r2, Config{Rep: RepDense, Dir: DirAuto}); n != "dir-opt" {
		t.Errorf("dir-opt = %q", n)
	}
}
