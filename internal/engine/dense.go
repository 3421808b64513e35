package engine

import (
	"math/bits"
	"sync/atomic"

	"pmemgraph/internal/graph"
)

// Dense is a bit-vector worklist over |V| vertices with atomic activation —
// the frontier structure of §5.1 of the paper, and the dedup/membership
// structure behind the engine's sparse worklists. It is safe for concurrent
// use by the virtual threads of one memsim parallel region (and by the
// shard workers of one superstep, which only read it). It is a pure data
// structure; the simulated cost of reading and writing it is charged by the
// kernels through their memsim arrays.
type Dense struct {
	words []atomic.Uint64
	n     int
}

// NewDense returns an empty dense worklist for n vertices.
func NewDense(n int) *Dense {
	return &Dense{words: make([]atomic.Uint64, (n+63)/64), n: n}
}

// FullDense returns a dense worklist with every vertex active (the initial
// frontier of topology-driven rounds).
func FullDense(n int) *Dense {
	d := NewDense(n)
	for i := range d.words {
		d.words[i].Store(^uint64(0))
	}
	if rem := n & 63; rem != 0 && len(d.words) > 0 {
		d.words[len(d.words)-1].Store((uint64(1) << rem) - 1)
	}
	return d
}

// DenseFromVertices returns a dense worklist with exactly vs active (the
// sparse-to-dense frontier conversion).
func DenseFromVertices(n int, vs []graph.Node) *Dense {
	d := NewDense(n)
	for _, v := range vs {
		d.Set(v)
	}
	return d
}

// Vertices appends every active vertex in ascending ID order to buf and
// returns the extended slice (the dense-to-sparse frontier conversion).
func (d *Dense) Vertices(buf []graph.Node) []graph.Node {
	for w := range d.words {
		word := d.words[w].Load()
		for word != 0 {
			buf = append(buf, graph.Node(w)<<6+graph.Node(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return buf
}

// Len returns the vertex capacity |V|.
func (d *Dense) Len() int { return d.n }

// WordCount returns the number of 64-bit words backing the bit-vector
// (the unit kernels charge when scanning the frontier).
func (d *Dense) WordCount() int { return len(d.words) }

// Set activates v, reporting whether it was newly activated.
func (d *Dense) Set(v graph.Node) bool {
	w := &d.words[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// Test reports whether v is active.
func (d *Dense) Test(v graph.Node) bool {
	return d.words[v>>6].Load()&(1<<(v&63)) != 0
}

// Unset deactivates v (used to clear a reused dedup set in O(|cleared|)
// instead of O(|V|)).
func (d *Dense) Unset(v graph.Node) {
	d.words[v>>6].And(^(uint64(1) << (v & 63)))
}

// Clear deactivates all vertices.
func (d *Dense) Clear() {
	for i := range d.words {
		d.words[i].Store(0)
	}
}

// Count returns the number of active vertices.
func (d *Dense) Count() int {
	total := 0
	for i := range d.words {
		total += bits.OnesCount64(d.words[i].Load())
	}
	return total
}

// ForEachInRange calls fn for every active vertex in [lo, hi); used by
// kernels to iterate a thread's share of the frontier.
func (d *Dense) ForEachInRange(lo, hi graph.Node, fn func(v graph.Node)) {
	for w := lo >> 6; w <= (hi-1)>>6 && int(w) < len(d.words); w++ {
		word := d.words[w].Load()
		for word != 0 {
			v := w<<6 + graph.Node(bits.TrailingZeros64(word))
			word &= word - 1
			if v >= lo && v < hi {
				fn(v)
			}
		}
	}
}
