// Package graph provides the immutable Compressed Sparse Row (CSR) graph
// representation shared by every system in this repository: the in-memory
// analytics engine, the framework emulations, the distributed-execution
// simulator, and the out-of-core simulator.
//
// Node IDs are uint32, matching the paper's observation that GAP, GraphIt
// and GridGraph store node IDs in 32 bits (and therefore cannot load graphs
// with more than 2^31-1 nodes); edge indices are int64 so edge counts are
// not similarly limited.
//
// This is the host-side storage layer: nothing here touches the memory
// simulator (graph construction, serialization and update application
// model loading, which the paper excludes from all reported numbers);
// charging happens when core.Runtime mirrors these arrays onto a
// simulated machine. Graphs are immutable once shared — the batched
// edge-update log (updates.go) validates a batch and produces a NEW graph
// via merge rebuild, never mutating the old one — and every builder,
// (de)serializer and generator is deterministic in its inputs.
package graph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Node is a vertex identifier.
type Node = uint32

// Graph is an immutable directed graph in CSR form. The out-direction is
// always present; the in-direction (transpose) is built on demand and is
// required only by pull-style and direction-optimizing operators.
type Graph struct {
	// OutOffsets has length NumNodes()+1; the out-edges of node v are
	// OutEdges[OutOffsets[v]:OutOffsets[v+1]].
	OutOffsets []int64
	OutEdges   []Node
	// OutWeights parallels OutEdges; nil for unweighted graphs.
	OutWeights []uint32

	// In-direction (transpose); nil until BuildIn is called.
	InOffsets []int64
	InEdges   []Node
	InWeights []uint32

	// zcache holds the lazily-encoded compressed adjacency forms (see
	// compressed.go); mutating methods invalidate it.
	zcache
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.OutOffsets) - 1 }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return int64(len(g.OutEdges)) }

// HasWeights reports whether edge weights are present.
func (g *Graph) HasWeights() bool { return g.OutWeights != nil }

// HasIn reports whether the transpose has been built.
func (g *Graph) HasIn() bool { return g.InOffsets != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v Node) int64 {
	return g.OutOffsets[v+1] - g.OutOffsets[v]
}

// InDegree returns the in-degree of v; BuildIn must have been called.
func (g *Graph) InDegree(v Node) int64 {
	return g.InOffsets[v+1] - g.InOffsets[v]
}

// OutNeighbors returns the out-adjacency slice of v. The slice aliases the
// graph's storage and must not be modified.
func (g *Graph) OutNeighbors(v Node) []Node {
	return g.OutEdges[g.OutOffsets[v]:g.OutOffsets[v+1]]
}

// OutWeightsOf returns the weight slice parallel to OutNeighbors(v).
func (g *Graph) OutWeightsOf(v Node) []uint32 {
	return g.OutWeights[g.OutOffsets[v]:g.OutOffsets[v+1]]
}

// InNeighbors returns the in-adjacency slice of v; BuildIn must have been
// called.
func (g *Graph) InNeighbors(v Node) []Node {
	return g.InEdges[g.InOffsets[v]:g.InOffsets[v+1]]
}

// InWeightsOf returns the weight slice parallel to InNeighbors(v).
func (g *Graph) InWeightsOf(v Node) []uint32 {
	return g.InWeights[g.InOffsets[v]:g.InOffsets[v+1]]
}

// Validate checks structural invariants; it is used by tests and by the
// binary deserializer.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if n < 0 {
		return fmt.Errorf("graph: negative node count")
	}
	if g.OutOffsets[0] != 0 {
		return fmt.Errorf("graph: OutOffsets[0] = %d, want 0", g.OutOffsets[0])
	}
	for v := 0; v < n; v++ {
		if g.OutOffsets[v+1] < g.OutOffsets[v] {
			return fmt.Errorf("graph: OutOffsets not monotone at node %d", v)
		}
	}
	if g.OutOffsets[n] != int64(len(g.OutEdges)) {
		return fmt.Errorf("graph: OutOffsets[n]=%d != |E|=%d", g.OutOffsets[n], len(g.OutEdges))
	}
	for i, d := range g.OutEdges {
		if int(d) >= n {
			return fmt.Errorf("graph: edge %d targets node %d >= n=%d", i, d, n)
		}
	}
	if g.OutWeights != nil && len(g.OutWeights) != len(g.OutEdges) {
		return fmt.Errorf("graph: weights length %d != edges length %d", len(g.OutWeights), len(g.OutEdges))
	}
	if g.HasIn() {
		if len(g.InOffsets) != n+1 {
			return fmt.Errorf("graph: InOffsets length %d, want %d", len(g.InOffsets), n+1)
		}
		if g.InOffsets[0] != 0 {
			return fmt.Errorf("graph: InOffsets[0] = %d, want 0", g.InOffsets[0])
		}
		for v := 0; v < n; v++ {
			if g.InOffsets[v+1] < g.InOffsets[v] {
				return fmt.Errorf("graph: InOffsets not monotone at node %d", v)
			}
		}
		if g.InOffsets[n] != int64(len(g.InEdges)) {
			return fmt.Errorf("graph: InOffsets[n]=%d != in-edge count %d", g.InOffsets[n], len(g.InEdges))
		}
		if int64(len(g.InEdges)) != g.NumEdges() {
			return fmt.Errorf("graph: in-edge count %d != out-edge count %d", len(g.InEdges), g.NumEdges())
		}
		for i, s := range g.InEdges {
			if int(s) >= n {
				return fmt.Errorf("graph: in-edge %d sources from node %d >= n=%d", i, s, n)
			}
		}
		if g.InWeights != nil && len(g.InWeights) != len(g.InEdges) {
			return fmt.Errorf("graph: in-weights length %d != in-edges length %d", len(g.InWeights), len(g.InEdges))
		}
	}
	return nil
}

// BuildIn constructs the transpose (in-edges) with a counting sort split
// across buildWorkers workers, each over a source-vertex range of about
// equal edge count (splitRows). Each worker counts its range's
// destinations into its own histogram; prefixHistograms turns those into
// the in-offsets and per-worker cursors, so worker k's slots in an in-row
// follow every earlier worker's. Each worker then scatters its range in
// source order, so every in-row lists its sources ascending — the bytes a
// single sequential pass writes, at any GOMAXPROCS. It is idempotent.
func (g *Graph) BuildIn() {
	if g.HasIn() {
		return
	}
	n, m := g.NumNodes(), g.NumEdges()
	workers := buildWorkers(n, m)
	bounds := splitRows(g.OutOffsets, workers)
	hist := make([][]int64, workers)
	parallel(workers, func(w int) {
		h := make([]int64, n)
		for _, d := range g.OutEdges[g.OutOffsets[bounds[w]]:g.OutOffsets[bounds[w+1]]] {
			h[d]++
		}
		hist[w] = h
	})
	inOff := prefixHistograms(hist, n)
	inEdges := make([]Node, m)
	var inWeights []uint32
	if g.OutWeights != nil {
		inWeights = make([]uint32, m)
	}
	parallel(workers, func(w int) {
		cursor := hist[w]
		for v := bounds[w]; v < bounds[w+1]; v++ {
			lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
			for i := lo; i < hi; i++ {
				d := g.OutEdges[i]
				c := cursor[d]
				inEdges[c] = Node(v)
				if inWeights != nil {
					inWeights[c] = g.OutWeights[i]
				}
				cursor[d] = c + 1
			}
		}
	})
	g.InOffsets = inOff
	g.InEdges = inEdges
	g.InWeights = inWeights
	g.dropCompressed(false, true)
}

// DropIn releases the transpose, e.g. after a direction-optimizing run, to
// mirror frameworks that free unneeded directions.
func (g *Graph) DropIn() {
	g.InOffsets, g.InEdges, g.InWeights = nil, nil, nil
	g.dropCompressed(false, true)
}

// Edge is one directed edge with an optional weight, used by builders and
// generators.
type Edge struct {
	Src, Dst Node
	Weight   uint32
}

// FromEdges builds a CSR graph with n nodes from an edge list: a counting
// sort by source (count out-degrees, prefix-sum them, scatter each
// destination into its row) followed by a typed sort of each row by
// destination, so construction is O(V + E·log d) with no comparison sort
// over the edge list. The count and the scatter split the list into one
// contiguous slice per buildWorkers worker. Each worker counts its slice
// into its own histogram; prefixHistograms turns those into the offsets
// and per-worker cursors, so worker k's slots in a row follow every earlier
// worker's, and each worker scatters its slice in input order. Parallel
// copies of a (Src, Dst) pair therefore keep their input order at any
// GOMAXPROCS, which makes their weights' order deterministic on weighted
// graphs. The caller's slice is read, never reordered. Parallel edges and
// self-loops are kept unless dedupe is set (triangle counting requires
// deduplicated, loop-free input); dedupe keeps the first copy of each pair.
// Every endpoint must lie in [0, n) — Node's unsignedness already excludes
// negatives, and anything >= n is rejected here, naming the lowest
// offending index, instead of corrupting (or panicking over) the offset
// arrays.
func FromEdges(n int, edges []Edge, weighted, dedupe bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	workers := buildWorkers(n, int64(len(edges)))
	slice := func(w int) (int, []Edge) {
		lo := len(edges) * w / workers
		return lo, edges[lo : len(edges)*(w+1)/workers]
	}
	hist := make([][]int64, workers)
	bad := make([]int, workers) // each slice's first out-of-range index, or -1
	parallel(workers, func(w int) {
		lo, part := slice(w)
		h := make([]int64, n)
		hist[w], bad[w] = h, -1
		for i, e := range part {
			if int64(e.Src) >= int64(n) || int64(e.Dst) >= int64(n) {
				bad[w] = lo + i
				return
			}
			h[e.Src]++
		}
	})
	for _, i := range bad {
		if i >= 0 {
			e := edges[i]
			return nil, fmt.Errorf("graph: edge %d (%d -> %d) endpoint out of range [0, %d)", i, e.Src, e.Dst, n)
		}
	}
	g := &Graph{
		OutOffsets: prefixHistograms(hist, n),
		OutEdges:   make([]Node, len(edges)),
	}
	if weighted {
		g.OutWeights = make([]uint32, len(edges))
	}
	parallel(workers, func(w int) {
		_, part := slice(w)
		cursor := hist[w]
		for _, e := range part {
			c := cursor[e.Src]
			g.OutEdges[c] = e.Dst
			if weighted {
				g.OutWeights[c] = e.Weight
			}
			cursor[e.Src] = c + 1
		}
	})
	g.sortRows()
	if dedupe {
		g.compactRows()
	}
	return g, nil
}

// buildWorkers is the worker count of a construction pass that fills m
// slots of n rows: one per GOMAXPROCS, but each worker gets at least 2^14
// items, and there are few enough that their n-entry int64 histograms hold
// at most m/2 entries in all — no more bytes than the 4-byte slot array the
// pass fills. It is at least 1.
func buildWorkers(n int, m int64) int {
	w := min(int64(runtime.GOMAXPROCS(0)), m>>14)
	if n > 0 {
		w = min(w, m/(2*int64(n)))
	}
	return int(max(w, 1))
}

// splitRows cuts vertices [0, n) into workers contiguous ranges of about
// equal edge count under offsets (length n+1): worker w takes
// [bounds[w], bounds[w+1]).
func splitRows(offsets []int64, workers int) (bounds []int) {
	n := len(offsets) - 1
	bounds = make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := offsets[n] * int64(w) / int64(workers)
		bounds[w] = sort.Search(n, func(v int) bool { return offsets[v] >= target })
	}
	bounds[workers] = n
	return bounds
}

// parallel runs fn(w) for every w in [0, workers) and waits for all of
// them. One worker runs inline on the caller's goroutine.
func parallel(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// prefixHistograms turns per-worker row counts (hist[w][v]: worker w's
// items in row v, for n rows) into CSR offsets, which it returns, and
// rewrites each count in place into that worker's first slot in the row.
// Worker k's slots in a row follow every earlier worker's, so workers that
// each scatter their own range of the input in order fill every row in
// input order.
func prefixHistograms(hist [][]int64, n int) []int64 {
	offsets := make([]int64, n+1)
	var next int64
	for v := range n {
		for _, h := range hist {
			next, h[v] = next+h[v], next
		}
		offsets[v+1] = next
	}
	return offsets
}

// sortRows sorts every out-row by destination; on weighted graphs the sort
// is stable, so parallel copies keep the order the scatter gave them. Rows
// are disjoint, so the workers each take a range of splitRows and the
// result does not depend on the split.
func (g *Graph) sortRows() {
	workers := buildWorkers(g.NumNodes(), g.NumEdges())
	bounds := splitRows(g.OutOffsets, workers)
	parallel(workers, func(w int) { g.sortRowRange(bounds[w], bounds[w+1]) })
}

// sortRowRange is sortRows over the rows of vertices [from, to).
func (g *Graph) sortRowRange(from, to int) {
	var buf []weightedDst
	for v := from; v < to; v++ {
		lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
		row := g.OutEdges[lo:hi]
		if g.OutWeights == nil {
			slices.Sort(row)
			continue
		}
		buf = buf[:0]
		for i, d := range row {
			buf = append(buf, weightedDst{d, g.OutWeights[lo+int64(i)]})
		}
		slices.SortStableFunc(buf, func(a, b weightedDst) int { return cmp.Compare(a.dst, b.dst) })
		for i, e := range buf {
			row[i], g.OutWeights[lo+int64(i)] = e.dst, e.w
		}
	}
}

type weightedDst struct {
	dst Node
	w   uint32
}

// compactRows drops self-loops and repeated destinations from the sorted
// rows in place and rewrites the offsets.
func (g *Graph) compactRows() {
	var w, lo int64
	for v := 0; v < g.NumNodes(); v++ {
		hi, start := g.OutOffsets[v+1], w
		for i := lo; i < hi; i++ {
			d := g.OutEdges[i]
			if d == Node(v) || (w > start && g.OutEdges[w-1] == d) {
				continue
			}
			g.OutEdges[w] = d
			if g.OutWeights != nil {
				g.OutWeights[w] = g.OutWeights[i]
			}
			w++
		}
		g.OutOffsets[v+1], lo = w, hi
	}
	g.OutEdges = g.OutEdges[:w]
	if g.OutWeights != nil {
		g.OutWeights = g.OutWeights[:w]
	}
}

// MustFromEdges is FromEdges that panics on invalid input, for builders
// (generators, tests) whose edge lists are in-range by construction.
func MustFromEdges(n int, edges []Edge, weighted, dedupe bool) *Graph {
	g, err := FromEdges(n, edges, weighted, dedupe)
	if err != nil {
		panic(err)
	}
	return g
}

// AddRandomWeights assigns pseudo-random weights in [1, maxWeight] to every
// edge, as the paper does for sssp on unweighted inputs ("all graphs are
// unweighted, so we generate random weights").
func (g *Graph) AddRandomWeights(maxWeight uint32, seed uint64) {
	if maxWeight == 0 {
		maxWeight = 1
	}
	w := make([]uint32, len(g.OutEdges))
	x := seed | 1
	for i := range w {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		w[i] = uint32((x*0x2545F4914F6CDD1D)%uint64(maxWeight)) + 1
	}
	g.OutWeights = w
	g.dropCompressed(true, true)
	if g.HasIn() {
		// Rebuild transpose weights to stay consistent.
		g.InOffsets = nil
		g.InEdges = nil
		g.InWeights = nil
		g.BuildIn()
	}
}

// CSRBytes returns the size of the graph's CSR representation in bytes
// (offsets + edges + weights for the directions present), mirroring the
// "Size (GB)" column of Table 3.
func (g *Graph) CSRBytes() int64 {
	n := int64(g.NumNodes())
	size := (n + 1) * 8
	size += g.NumEdges() * 4
	if g.OutWeights != nil {
		size += g.NumEdges() * 4
	}
	if g.HasIn() {
		size += (n+1)*8 + g.NumEdges()*4
		if g.InWeights != nil {
			size += g.NumEdges() * 4
		}
	}
	return size
}

// MaxOutDegreeNode returns the node with the maximum out-degree (the
// paper's source node for bc, bfs and sssp) and its degree.
func (g *Graph) MaxOutDegreeNode() (Node, int64) {
	var best Node
	bestDeg := int64(-1)
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(Node(v)); d > bestDeg {
			bestDeg = d
			best = Node(v)
		}
	}
	return best, bestDeg
}

// MaxInDegree returns the maximum in-degree, building the transpose counts
// without materializing it.
func (g *Graph) MaxInDegree() int64 {
	counts := make([]int64, g.NumNodes())
	for _, d := range g.OutEdges {
		counts[d]++
	}
	var best int64
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return best
}
