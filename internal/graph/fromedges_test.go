package graph

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// fromEdgesOracle builds the CSR FromEdges must produce, by definition: a
// stable sort of the whole list by (Src, Dst), then a dedupe that keeps
// the first copy of each pair and drops self-loops, then rows read off in
// order.
func fromEdgesOracle(n int, edges []Edge, weighted, dedupe bool) *Graph {
	sorted := slices.Clone(edges)
	slices.SortStableFunc(sorted, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	if dedupe {
		out := sorted[:0]
		for _, e := range sorted {
			if e.Src == e.Dst {
				continue
			}
			if len(out) > 0 && out[len(out)-1].Src == e.Src && out[len(out)-1].Dst == e.Dst {
				continue
			}
			out = append(out, e)
		}
		sorted = out
	}
	g := &Graph{OutOffsets: make([]int64, n+1), OutEdges: []Node{}}
	if weighted {
		g.OutWeights = []uint32{}
	}
	for _, e := range sorted {
		g.OutOffsets[e.Src+1]++
		g.OutEdges = append(g.OutEdges, e.Dst)
		if weighted {
			g.OutWeights = append(g.OutWeights, e.Weight)
		}
	}
	for v := 0; v < n; v++ {
		g.OutOffsets[v+1] += g.OutOffsets[v]
	}
	return g
}

// TestFromEdgesMatchesOracle drives the counting-sort builder against the
// by-definition oracle on random lists dense in self-loops and parallel
// copies (distinct weights, so a copy's position is observable), sparse
// enough in sources to leave empty rows, and at n = 0. Every 100th list is
// long enough for the row sort to be split across workers.
func TestFromEdgesMatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewPCG(29, 1))
	for trial := 0; trial < 400; trial++ {
		n, m := rnd.IntN(40), rnd.IntN(200)
		if trial%10 == 0 {
			n = 0
		}
		if trial%100 == 50 {
			n, m = 2000, 70_000
		}
		var edges []Edge
		if n > 0 {
			// Few distinct sources and destinations: many parallel copies,
			// self-loops, and rows left empty.
			srcs, dsts := 1+rnd.IntN(n), 1+rnd.IntN(n)
			edges = make([]Edge, m)
			for i := range edges {
				edges[i] = Edge{
					Src:    Node(rnd.IntN(srcs)) * Node(n/srcs),
					Dst:    Node(rnd.IntN(dsts)),
					Weight: uint32(i + 1),
				}
			}
		}
		for _, weighted := range []bool{false, true} {
			for _, dedupe := range []bool{false, true} {
				input := slices.Clone(edges)
				g, err := FromEdges(n, input, weighted, dedupe)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !slices.Equal(input, edges) {
					t.Fatalf("trial %d weighted=%v dedupe=%v: FromEdges reordered its input", trial, weighted, dedupe)
				}
				want := fromEdgesOracle(n, edges, weighted, dedupe)
				if !slices.Equal(g.OutOffsets, want.OutOffsets) || !slices.Equal(g.OutEdges, want.OutEdges) {
					t.Fatalf("trial %d n=%d weighted=%v dedupe=%v: adjacency\n got %v %v\nwant %v %v",
						trial, n, weighted, dedupe, g.OutOffsets, g.OutEdges, want.OutOffsets, want.OutEdges)
				}
				if (g.OutWeights == nil) != !weighted || !slices.Equal(g.OutWeights, want.OutWeights) {
					t.Fatalf("trial %d n=%d dedupe=%v: weights\n got %v\nwant %v", trial, n, dedupe, g.OutWeights, want.OutWeights)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
			}
		}
	}
}

// TestFromEdgesWeightedCopiesKeepInputOrder pins the tie rule directly:
// parallel copies of one pair come out in the order they went in.
func TestFromEdgesWeightedCopiesKeepInputOrder(t *testing.T) {
	g := MustFromEdges(3, []Edge{
		{Src: 1, Dst: 2, Weight: 30}, {Src: 1, Dst: 0, Weight: 5},
		{Src: 1, Dst: 2, Weight: 10}, {Src: 1, Dst: 2, Weight: 20},
	}, true, false)
	if got := g.OutNeighbors(1); !slices.Equal(got, []Node{0, 2, 2, 2}) {
		t.Fatalf("row 1 = %v", got)
	}
	if got := g.OutWeightsOf(1); !slices.Equal(got, []uint32{5, 30, 10, 20}) {
		t.Fatalf("row 1 weights = %v, want input order among copies", got)
	}
}

// fromEdgesSequential is FromEdges as one sequential pass: count every
// source, prefix-sum, scatter the whole list in input order, then the same
// row sort and dedupe. FromEdges must write its bytes at any GOMAXPROCS.
func fromEdgesSequential(n int, edges []Edge, weighted, dedupe bool) *Graph {
	g := &Graph{OutOffsets: make([]int64, n+1), OutEdges: make([]Node, len(edges))}
	if weighted {
		g.OutWeights = make([]uint32, len(edges))
	}
	for _, e := range edges {
		g.OutOffsets[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		g.OutOffsets[v+1] += g.OutOffsets[v]
	}
	cursor := slices.Clone(g.OutOffsets[:n])
	for _, e := range edges {
		c := cursor[e.Src]
		g.OutEdges[c] = e.Dst
		if weighted {
			g.OutWeights[c] = e.Weight
		}
		cursor[e.Src] = c + 1
	}
	g.sortRows()
	if dedupe {
		g.compactRows()
	}
	return g
}

// TestFromEdgesSplitMatchesSequential checks the split count and scatter
// where the split shows: one pair has weighted copies in the first, middle
// and last thirds of the list (each worker's slice at GOMAXPROCS 3 and 8),
// among self-loops and random edges, and must come out in input order,
// with and without dedupe, exactly as one sequential pass writes it.
func TestFromEdgesSplitMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, m = 5000, 150_000
	rnd := rand.New(rand.NewPCG(48, 1))
	edges := make([]Edge, m)
	for i := range edges {
		src := Node(rnd.IntN(n))
		dst := Node(rnd.IntN(n))
		if i%97 == 0 {
			dst = src
		}
		edges[i] = Edge{Src: src, Dst: dst, Weight: uint32(i + 1)}
	}
	copies := []int{3, m / 6, m / 2, m/2 + 1, 5 * m / 6, m - 1}
	for k, i := range copies {
		edges[i] = Edge{Src: 7, Dst: 11, Weight: uint32(1_000_000 + k)}
	}
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		if w := buildWorkers(n, m); w != procs {
			t.Fatalf("GOMAXPROCS=%d: FromEdges splits into %d workers", procs, w)
		}
		for _, dedupe := range []bool{false, true} {
			g, err := FromEdges(n, edges, true, dedupe)
			if err != nil {
				t.Fatal(err)
			}
			want := fromEdgesSequential(n, edges, true, dedupe)
			if !slices.Equal(g.OutOffsets, want.OutOffsets) || !slices.Equal(g.OutEdges, want.OutEdges) ||
				!slices.Equal(g.OutWeights, want.OutWeights) {
				t.Fatalf("GOMAXPROCS=%d dedupe=%v: CSR differs from the sequential pass", procs, dedupe)
			}
			var got []uint32
			for k, d := range g.OutNeighbors(7) {
				if d == 11 {
					got = append(got, g.OutWeightsOf(7)[k])
				}
			}
			wantW := []uint32{1_000_000, 1_000_001, 1_000_002, 1_000_003, 1_000_004, 1_000_005}
			if dedupe {
				wantW = wantW[:1]
			}
			if !slices.Equal(got, wantW) {
				t.Fatalf("GOMAXPROCS=%d dedupe=%v: copies of 7->11 carry %v, want input order %v", procs, dedupe, got, wantW)
			}
		}
	}
}

// TestFromEdgesSplitNamesLowestBadEdge puts out-of-range edges in two
// different workers' slices: the error must name the lower index whichever
// worker finds its own first.
func TestFromEdgesSplitNamesLowestBadEdge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, m = 5000, 150_000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: Node(i % n), Dst: Node((i * 7) % n)}
	}
	edges[2*m/3+5].Dst = n
	edges[m/3+7].Src = n + 3
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		_, err := FromEdges(n, edges, false, false)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("edge %d ", m/3+7)) {
			t.Fatalf("GOMAXPROCS=%d: error %v, want it to name edge %d", procs, err, m/3+7)
		}
	}
}
