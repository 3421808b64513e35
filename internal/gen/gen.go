// Package gen generates the synthetic stand-ins for the paper's input
// graphs (Table 3) plus utility graphs for tests.
//
// The paper's inputs are 136 GB - 1 TB on disk and are not redistributable
// here, so each is regenerated at reduced scale preserving the properties
// the paper's findings depend on (DESIGN.md §2):
//
//   - |E|/|V| ratio and degree skew (power-law hubs for web crawls and
//     kron/rmat, dense clusters for the protein network)
//   - diameter class: kron/rmat stay below ~10 hops while the web-crawl
//     stand-ins have estimated diameters in the hundreds to thousands,
//     which is what makes sparse worklists and asynchronous algorithms win
//     in §5
//   - footprint relative to near-memory, via the scale divisor shared with
//     the memsim machine configurations
//
// Generation is host-side work below the charging seam (loading is
// excluded from all reported numbers, so nothing here touches memsim),
// and every generator — graphs and edge-update streams (updates.go) alike
// — is a pure function of its parameters and seed, which is what lets
// harness runs, goldens, and the serving conformance suite share inputs
// byte-for-byte. That holds at any GOMAXPROCS: a generator may split its
// work across goroutines only where each one writes a fixed range of the
// output from a fixed range of the random stream. RMAT does so — edge i
// takes draws [i·scale, (i+1)·scale), and splitmix64 jumps to any draw in
// O(1) (newRNGAt) — so its workers fill contiguous ranges of one edge list
// that is the same slice, in the same order, as a sequential loop's. RMAT
// picks each bit's quadrant without a float or a branch: rng.float is
// exactly (x>>11)·2⁻⁵³, so comparing it with a threshold t is comparing
// the integer x>>11 with ⌈t·2⁵³⌉, and the quadrant is the count of the
// three thresholds reached (quadrants). FromEdges, which seals every
// generator's list, splits across workers the same way (see its doc).
// testdata/generators.golden pins every generator's bytes at GOMAXPROCS
// 1, 3 and 8, and the sealed bytes (weights, transpose, both compressed
// encodings) of the larger ones.
package gen

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"

	"pmemgraph/internal/graph"
)

// rng is a splitmix64 generator; all generators are deterministic in their
// seed.
type rng struct{ state uint64 }

// gamma is splitmix64's state increment.
const gamma = 0x9E3779B97F4A7C15

func newRNG(seed uint64) *rng { return newRNGAt(seed, 0) }

// newRNGAt returns the generator newRNG(seed) becomes after draws calls to
// next: splitmix64's state only ever advances by the constant increment, so
// any point of the stream is reachable in O(1).
func newRNGAt(seed, draws uint64) *rng { return &rng{state: seed + (draws+1)*gamma} }

func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// RMAT generates a directed R-MAT graph with 2^scale nodes and
// edgeFactor*2^scale edges using recursive quadrant selection with the
// given probabilities (the paper uses the graph500 weights 0.57, 0.19,
// 0.19, 0.05 for both rmat and kron inputs). Edge i consumes exactly draws
// [i·scale, (i+1)·scale) of the seed's stream, so workers fill disjoint
// index ranges of the edge list from jumped-ahead generators. Each draw
// picks its quadrant by integer compares against thresholds fixed once
// per call (see quadrants), with no data-dependent branch.
func RMAT(scale int, edgeFactor int, a, b, c float64, seed uint64, symmetrize bool) *graph.Graph {
	n := 1 << scale
	m := n * edgeFactor
	per := 1
	if symmetrize {
		m /= 2
		per = 2
	}
	q := newQuadrants(a, b, c)
	edges := make([]graph.Edge, m*per)
	parallelRange(m, func(lo, hi int) {
		r := newRNGAt(seed, uint64(lo)*uint64(scale))
		for i := lo; i < hi; i++ {
			var src, dst uint64
			for bit := scale - 1; bit >= 0; bit-- {
				k := q.pick(r.next())
				src |= (k >> 1) << bit
				dst |= (k & 1) << bit
			}
			edges[i*per] = graph.Edge{Src: graph.Node(src), Dst: graph.Node(dst)}
			if symmetrize {
				edges[i*per+1] = graph.Edge{Src: graph.Node(dst), Dst: graph.Node(src)}
			}
		}
	})
	return graph.MustFromEdges(n, edges, false, false)
}

// quadrants holds RMAT's quadrant thresholds on the raw draw, each less one
// (mod 2^64). A draw x is the float p = (x>>11)·2⁻⁵³ (rng.float), and for
// an integer k = x>>11, p < t holds exactly when k < ⌈t·2⁵³⌉: scaling by a
// power of two is exact. So the quadrant a float compare against a, a+b and
// a+b+c picks is the number of those three thresholds k has reached.
type quadrants struct{ t1, t2, t3 uint64 }

// newQuadrants fixes the thresholds from the same float sums the compare
// forms. Each is clamped to [0, 2⁵³] (a NaN reads 0, as p < NaN is false)
// and raised to the one before it, since a compare that fails against a
// lower threshold never reaches a higher one.
func newQuadrants(a, b, c float64) quadrants {
	t1 := threshold(a)
	t2 := max(threshold(a+b), t1)
	t3 := max(threshold(a+b+c), t2)
	return quadrants{t1 - 1, t2 - 1, t3 - 1}
}

// threshold is ⌈t·2⁵³⌉ clamped to [0, 2⁵³]: the number of 53-bit draws k
// with k·2⁻⁵³ < t.
func threshold(t float64) uint64 {
	x := math.Ceil(t * (1 << 53))
	if !(x > 0) {
		return 0
	}
	return uint64(min(x, 1<<53))
}

// pick returns the quadrant of draw x: 0 upper-left, 1 upper-right (dst
// bit), 2 lower-left (src bit), 3 lower-right (both). For k < 2⁵³ and a
// threshold t ≤ 2⁵³, t-1-k has its top bit set exactly when k ≥ t, t = 0
// included.
func (q quadrants) pick(x uint64) uint64 {
	k := x >> 11
	return (q.t1-k)>>63 + (q.t2-k)>>63 + (q.t3-k)>>63
}

// parallelRange splits [0, m) into one contiguous range per GOMAXPROCS
// worker (each at least minChunk items long) and waits for all of
// them. fn must write only its own range's outputs, so the result is the
// same at any GOMAXPROCS.
func parallelRange(m int, fn func(lo, hi int)) {
	const minChunk = 1 << 14
	workers := min(runtime.GOMAXPROCS(0), (m+minChunk-1)/minChunk)
	if workers <= 1 {
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(m*w/workers, m*(w+1)/workers)
	}
	wg.Wait()
}

// Kron generates a Kronecker-style scale-free graph: RMAT recursion with
// graph500 weights, symmetrized (kron graphs have matching max in/out
// degrees in Table 3).
func Kron(scale, edgeFactor int, seed uint64) *graph.Graph {
	return RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed, true)
}

// WebCrawl generates a synthetic web-crawl-like graph: a scale-free "core"
// with large in-degree hubs plus long tail chains of depth up to maxDepth
// (deep dynamic pages reachable only by following long link chains). The
// tail chains give the graph the high estimated diameter that
// distinguishes real web crawls (clueweb12 ~498, uk14 ~2498, wdc12 ~5274)
// from synthetic kron/rmat inputs, while the hubs reproduce the extreme
// max-in-degree skew (75M for clueweb12).
func WebCrawl(n int, avgDeg int, maxDepth int, seed uint64) *graph.Graph {
	if maxDepth < 2 {
		maxDepth = 2
	}
	r := newRNG(seed)

	// 70% of nodes form the core, 30% form tail chains.
	core := n * 7 / 10
	if core < 1 {
		core = 1
	}
	// Hubs: the top sqrt(core) nodes receive Zipf-weighted in-links.
	hubs := isqrt(core)
	if hubs < 1 {
		hubs = 1
	}

	edges := make([]graph.Edge, 0, n*avgDeg)
	// Core: power-law out-degrees, targets biased to hubs and to nearby
	// nodes (site-locality).
	for v := 0; v < core; v++ {
		deg := powerLawDegree(r, avgDeg)
		for k := 0; k < deg; k++ {
			var dst int
			switch p := r.float(); {
			case p < 0.35:
				// Skewed hub choice with geometric decay. The decay
				// rate keeps the top hub near 0.2% of all edges,
				// matching clueweb12's max-in-degree-to-|E| ratio
				// (75M / 42.6B); a plain Zipf head would concentrate
				// several percent of edges on one vertex, which no
				// real crawl does.
				dst = hubPick(r, hubs)
			case p < 0.85:
				// Nearby node (same "site").
				dst = v + r.intn(201) - 100
				if dst < 0 || dst >= core {
					dst = r.intn(core)
				}
			default:
				dst = r.intn(core)
			}
			if dst != v {
				edges = append(edges, graph.Edge{Src: graph.Node(v), Dst: graph.Node(dst)})
			}
		}
	}

	// Tails: chains of length up to maxDepth anchored in the core. Each
	// chain node links forward to the next chain node (plus a rare link
	// back to the core so the chain is not a strict line).
	v := core
	for v < n {
		chainLen := 2 + r.intn(maxDepth-1)
		if v+chainLen > n {
			chainLen = n - v
		}
		anchor := r.intn(core)
		edges = append(edges, graph.Edge{Src: graph.Node(anchor), Dst: graph.Node(v)})
		for j := 0; j < chainLen-1; j++ {
			edges = append(edges, graph.Edge{Src: graph.Node(v + j), Dst: graph.Node(v + j + 1)})
			if r.float() < 0.05 {
				edges = append(edges, graph.Edge{Src: graph.Node(v + j), Dst: graph.Node(r.intn(core))})
			}
		}
		v += chainLen
	}

	// Pad remaining edge budget with core-to-core power-law edges so the
	// average degree target is met. A one-vertex core (n <= 2) has no
	// core-to-core edge that is not a self-loop, so it gets no padding.
	for core > 1 && len(edges) < n*avgDeg {
		src := r.intn(core)
		dst := zipfPick(r, core)
		if src != dst {
			edges = append(edges, graph.Edge{Src: graph.Node(src), Dst: graph.Node(dst)})
		}
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// Protein generates a protein-similarity-network stand-in (iso_m100): very
// dense clusters (protein families) arranged along a chain of cluster
// neighbourhoods, giving high average degree and a moderate diameter
// (Table 3 reports |E|/|V| = 896 and estimated diameter 83).
func Protein(n int, avgDeg int, clusters int, seed uint64) *graph.Graph {
	if clusters < 1 {
		clusters = 1
	}
	r := newRNG(seed)
	per := n / clusters
	if per < 2 {
		per = 2
		clusters = n / per
		if clusters < 1 {
			clusters = 1
		}
	}
	edges := make([]graph.Edge, 0, n*avgDeg)
	for v := 0; v < n; v++ {
		cl := v / per
		if cl >= clusters {
			cl = clusters - 1
		}
		lo := cl * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		deg := avgDeg/2 + r.intn(avgDeg+1)
		for k := 0; k < deg; k++ {
			var dst int
			if r.float() < 0.92 || clusters == 1 {
				dst = lo + r.intn(hi-lo) // within family
			} else {
				// Adjacent family (similar folds).
				ncl := cl + 1 - 2*r.intn(2)
				if ncl < 0 || ncl >= clusters {
					ncl = cl
				}
				nlo := ncl * per
				nhi := nlo + per
				if nhi > n {
					nhi = n
				}
				dst = nlo + r.intn(nhi-nlo)
			}
			if dst != v {
				edges = append(edges, graph.Edge{Src: graph.Node(v), Dst: graph.Node(dst)})
				edges = append(edges, graph.Edge{Src: graph.Node(dst), Dst: graph.Node(v)})
			}
		}
	}
	return graph.MustFromEdges(n, edges, false, true)
}

// powerLawDegree draws an out-degree with mean roughly avg and a heavy
// tail (Pareto-like with exponent ~2.1).
func powerLawDegree(r *rng, avg int) int {
	u := r.float()
	if u < 1e-9 {
		u = 1e-9
	}
	// Pareto with alpha=2.1, xm chosen so mean = avg: mean = xm*a/(a-1).
	xm := float64(avg) * 1.1 / 2.1
	d := int(xm / math.Pow(u, 1/2.1))
	if d < 1 {
		d = 1
	}
	if d > avg*400 {
		d = avg * 400
	}
	return d
}

// hubPick picks a hub index with geometrically decaying probability
// (mean rank n/3), bounding the heaviest hub at a realistic share of the
// edge budget.
func hubPick(r *rng, n int) int {
	if n <= 1 {
		return 0
	}
	u := r.float()
	if u < 1e-12 {
		u = 1e-12
	}
	i := int(-math.Log(u) * float64(n) / 6)
	if i >= n {
		i = n - 1
	}
	return i
}

// zipfPick picks an index in [0,n) with probability ~ 1/(i+1).
func zipfPick(r *rng, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation for Zipf(1): i ~ n^u - 1.
	u := r.float()
	i := int(math.Pow(float64(n), u)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func isqrt(n int) int {
	if n < 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// --- utility graphs for tests ---

// Path returns a directed path 0 -> 1 -> ... -> n-1.
func Path(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node(i + 1)})
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// Cycle returns a directed cycle on n nodes.
func Cycle(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node((i + 1) % n)})
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// Star returns a star with node 0 at the center and spokes in both
// directions.
func Star(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, 2*(n-1))
	for i := 1; i < n; i++ {
		edges = append(edges,
			graph.Edge{Src: 0, Dst: graph.Node(i)},
			graph.Edge{Src: graph.Node(i), Dst: 0})
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// Complete returns the complete directed graph on n nodes (no self loops).
func Complete(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: graph.Node(i), Dst: graph.Node(j)})
			}
		}
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// Grid returns a rows x cols grid with bidirectional edges between
// 4-neighbours; node (r,c) has ID r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	var edges []graph.Edge
	id := func(r, c int) graph.Node { return graph.Node(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r, c+1)}, graph.Edge{Src: id(r, c+1), Dst: id(r, c)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{Src: id(r, c), Dst: id(r+1, c)}, graph.Edge{Src: id(r+1, c), Dst: id(r, c)})
			}
		}
	}
	return graph.MustFromEdges(rows*cols, edges, false, false)
}

// ErdosRenyi returns a uniform random directed graph with n nodes and m
// edges (duplicates removed).
func ErdosRenyi(n int, m int, seed uint64) *graph.Graph {
	r := newRNG(seed)
	// A simple directed graph on n nodes has at most n*(n-1) edges;
	// clamp so impossible requests terminate.
	if max := n * (n - 1); m > max {
		m = max
	}
	seen := make(map[uint64]bool, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		s := r.intn(n)
		d := r.intn(n)
		if s == d {
			continue
		}
		key := uint64(s)<<32 | uint64(d)
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, graph.Edge{Src: graph.Node(s), Dst: graph.Node(d)})
	}
	return graph.MustFromEdges(n, edges, false, false)
}

// SortNodesByDegreeDesc returns node IDs sorted by descending out-degree
// (used by triangle counting's preprocessing).
func SortNodesByDegreeDesc(g *graph.Graph) []graph.Node {
	nodes := make([]graph.Node, g.NumNodes())
	for i := range nodes {
		nodes[i] = graph.Node(i)
	}
	slices.SortFunc(nodes, func(a, b graph.Node) int {
		return cmp.Or(cmp.Compare(g.OutDegree(b), g.OutDegree(a)), cmp.Compare(a, b))
	})
	return nodes
}
