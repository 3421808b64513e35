package graph

import (
	"cmp"
	"math/rand/v2"
	"slices"
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
