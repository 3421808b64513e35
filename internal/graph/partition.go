package graph

import "fmt"

// Partition is an edge-cut decomposition of a sealed CSR into contiguous
// vertex ranges, one per shard. Each shard's local graph holds the rebased
// out- (and, if the source has a transpose, in-) offsets of its owned
// vertices over edge slices that alias the source arrays, so partitioning
// is O(|V|) and copies no topology. Destination (and transpose source) IDs
// stay GLOBAL: a shard kernel iterates local rows but scatters to global
// vertex IDs, which is what makes the superstep exchange protocol work.
//
// Invariants (locked by the property tests):
//   - the ranges tile [0, |V|): every vertex is owned by exactly one shard;
//   - every edge lands in exactly one shard's scatter set (its source
//     owner's local out-edges);
//   - Reassemble reproduces the source CSR byte-for-byte.
type Partition struct {
	src    *Graph
	ranges []Range
	locals []*Graph
	ghosts [][]Node
}

// Range is one shard's owned vertex block [Lo, Hi).
type Range struct{ Lo, Hi Node }

// NewPartition cuts g into `shards` contiguous vertex ranges balanced by
// out-edge count (the OEC master assignment, the one D-Galois-style
// systems use for small shard counts). Weights and the transpose are
// sliced if present, so g must be sealed before partitioning if kernels
// will need them: locals alias the source arrays and are never sealed
// themselves.
func NewPartition(g *Graph, shards int) (*Partition, error) {
	n := g.NumNodes()
	if shards <= 0 {
		return nil, fmt.Errorf("graph: shard count %d must be positive", shards)
	}
	if shards > n && n > 0 {
		shards = n
	}
	p := &Partition{
		src:    g,
		ranges: make([]Range, shards),
		locals: make([]*Graph, shards),
		ghosts: make([][]Node, shards),
	}

	// Contiguous blocks balanced by out-edges.
	perShard := g.NumEdges() / int64(shards)
	s := 0
	start := Node(0)
	acc := int64(0)
	for v := 0; v < n; v++ {
		acc += g.OutDegree(Node(v))
		if acc >= perShard*int64(s+1) && s < shards-1 {
			p.ranges[s] = Range{start, Node(v + 1)}
			start = Node(v + 1)
			s++
		}
	}
	for ; s < shards; s++ {
		p.ranges[s] = Range{start, Node(n)}
		start = Node(n)
	}

	mark := make([]bool, n)
	for i := range p.locals {
		p.locals[i] = p.extract(p.ranges[i])
		p.ghosts[i] = p.ghostsOf(i, mark)
	}
	return p, nil
}

// extract builds one shard's local graph: rebased offsets over aliased
// edge slices, global neighbor IDs.
func (p *Partition) extract(r Range) *Graph {
	g := p.src
	local := &Graph{
		OutOffsets: rebase(g.OutOffsets, r),
		OutEdges:   g.OutEdges[g.OutOffsets[r.Lo]:g.OutOffsets[r.Hi]],
	}
	if g.HasWeights() {
		local.OutWeights = g.OutWeights[g.OutOffsets[r.Lo]:g.OutOffsets[r.Hi]]
	}
	if g.HasIn() {
		// Pre-supplied transpose slice (global source IDs). BuildIn must
		// never run on a local: a counting sort over global IDs would
		// index past the local offset arrays.
		local.InOffsets = rebase(g.InOffsets, r)
		local.InEdges = g.InEdges[g.InOffsets[r.Lo]:g.InOffsets[r.Hi]]
		if g.InWeights != nil {
			local.InWeights = g.InWeights[g.InOffsets[r.Lo]:g.InOffsets[r.Hi]]
		}
	}
	return local
}

// rebase returns offsets[lo..hi] shifted to start at zero.
func rebase(offsets []int64, r Range) []int64 {
	out := make([]int64, int(r.Hi-r.Lo)+1)
	base := offsets[r.Lo]
	for i := range out {
		out[i] = offsets[int(r.Lo)+i] - base
	}
	return out
}

// ghostsOf returns shard i's ghost table: the sorted unique remote
// vertices its scatter set can reach (out-edge destinations owned by
// other shards). These are the mirrors a distributed runtime would
// allocate proxies for, and the superstep exchange's upper bound. mark is
// an all-false slice over |V|, shared by every shard: the walk in vertex
// order that collects the marked vertices also clears them.
func (p *Partition) ghostsOf(i int, mark []bool) []Node {
	r := p.ranges[i]
	count := 0
	for _, d := range p.src.OutEdges[p.src.OutOffsets[r.Lo]:p.src.OutOffsets[r.Hi]] {
		if (d < r.Lo || d >= r.Hi) && !mark[d] {
			mark[d] = true
			count++
		}
	}
	out := make([]Node, 0, count)
	for v, m := range mark {
		if m {
			out = append(out, Node(v))
			mark[v] = false
		}
	}
	return out
}

// Shards returns the shard count.
func (p *Partition) Shards() int { return len(p.ranges) }

// Source returns the partitioned source graph.
func (p *Partition) Source() *Graph { return p.src }

// NumNodes returns the source |V|.
func (p *Partition) NumNodes() int { return p.src.NumNodes() }

// RangeOf returns shard i's owned vertex block.
func (p *Partition) RangeOf(i int) Range { return p.ranges[i] }

// Local returns shard i's local graph.
func (p *Partition) Local(i int) *Graph { return p.locals[i] }

// Ghosts returns shard i's ghost (mirror) table.
func (p *Partition) Ghosts(i int) []Node { return p.ghosts[i] }

// Owner returns the shard owning v's master, by binary search over the
// range table.
func (p *Partition) Owner(v Node) int {
	lo, hi := 0, len(p.ranges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= p.ranges[mid].Hi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Reassemble reconstructs a CSR from the shard-local graphs alone (fresh
// arrays, no aliasing of the source), so the property tests can prove the
// partition lost nothing: the result must equal the source byte-for-byte.
func (p *Partition) Reassemble() *Graph {
	n := p.src.NumNodes()
	out := &Graph{OutOffsets: make([]int64, 1, n+1)}
	hasIn := p.src.HasIn()
	if hasIn {
		out.InOffsets = make([]int64, 1, n+1)
	}
	for _, local := range p.locals {
		eBase := out.OutOffsets[len(out.OutOffsets)-1]
		for _, off := range local.OutOffsets[1:] {
			out.OutOffsets = append(out.OutOffsets, eBase+off)
		}
		out.OutEdges = append(out.OutEdges, local.OutEdges...)
		if local.OutWeights != nil {
			out.OutWeights = append(out.OutWeights, local.OutWeights...)
		}
		if hasIn {
			iBase := out.InOffsets[len(out.InOffsets)-1]
			for _, off := range local.InOffsets[1:] {
				out.InOffsets = append(out.InOffsets, iBase+off)
			}
			out.InEdges = append(out.InEdges, local.InEdges...)
			if local.InWeights != nil {
				out.InWeights = append(out.InWeights, local.InWeights...)
			}
		}
	}
	return out
}
