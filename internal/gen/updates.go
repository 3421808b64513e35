package gen

import (
	"fmt"
	"sort"

	"pmemgraph/internal/graph"
)

// defaultUpdateWeightMax bounds insert weights when a weighted graph has
// no edges to infer a range from; it matches frameworks.DefaultWeightMax.
const defaultUpdateWeightMax = 64

// weightCeiling infers the weight range of a weighted graph so inserted
// edges stay on the same scale as the existing ones (a graphgen
// -weights 8 graph must not gain [1,64] inserts).
func weightCeiling(g *graph.Graph) int {
	max := uint32(0)
	for _, w := range g.OutWeights {
		if w > max {
			max = w
		}
	}
	if max == 0 {
		return defaultUpdateWeightMax
	}
	return int(max)
}

// UpdateStream generates a deterministic stream of edge-update batches
// against g for the streaming-update workload: each batch is valid for the
// graph state produced by applying all earlier batches (the generator
// evolves an overlay chain over g, validating each batch as it applies it),
// so the stream can be POSTed to /v1/graphs/{name}/updates batch by batch,
// or replayed through graph.ApplyUpdates, without validation errors.
// Batches mix ~3/4 insertions of fresh random pairs with ~1/4 deletions of
// existing edges when withDeletes is set, and are insert-only otherwise
// (insert-only streams keep incremental cc on its fast path). A deletion
// draws a uniform edge index of the current state in Materialize order —
// the overlay cursor's order — so a batch costs O(V + |delta|), never the
// O(E) rebuild of a materialized epoch. The stream is a pure function of
// (g, batches, perBatch, seed).
func UpdateStream(g *graph.Graph, batches, perBatch int, seed uint64, withDeletes bool) ([][]graph.EdgeUpdate, error) {
	if batches <= 0 || perBatch <= 0 {
		return nil, fmt.Errorf("gen: update stream needs positive batches (%d) and batch size (%d)", batches, perBatch)
	}
	n := g.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("gen: update stream needs at least 2 nodes, graph has %d", n)
	}
	r := newRNG(seed ^ 0x57EA3B17)
	cur := graph.NewOverlay(g)
	// deg and prefix are the current state's out-degrees and their prefix
	// sums: the edge with index ei belongs to the row v with
	// prefix[v] <= ei < prefix[v+1].
	deg := make([]int64, n)
	prefix := make([]int64, n+1)
	for v := range deg {
		deg[v] = g.OutDegree(graph.Node(v))
		prefix[v+1] = prefix[v] + deg[v]
	}
	weighted := g.HasWeights()
	weightMax := 0
	if weighted {
		weightMax = weightCeiling(g)
	}
	stream := make([][]graph.EdgeUpdate, 0, batches)
	for b := 0; b < batches; b++ {
		adj := cur.OutAdj(false)
		ups := make([]graph.EdgeUpdate, 0, perBatch)
		inserted := make(map[uint64]struct{})
		deleted := make(map[uint64]struct{})
		key := func(s, d graph.Node) uint64 { return uint64(s)<<32 | uint64(d) }
		// redraws bounds consecutive failed draws so a pathological batch
		// (e.g. a tiny graph whose every ordered pair is already deleted
		// in this batch) errors out instead of spinning forever.
		redraws := 0
		for len(ups) < perBatch {
			if redraws > 64 {
				return nil, fmt.Errorf("gen: batch %d stuck after %d operations (graph too small for batch size %d?)", b, len(ups), perBatch)
			}
			if withDeletes && cur.NumEdges() > 0 && r.intn(4) == 0 {
				// Delete a uniformly random existing edge; redraw if the
				// pair already appears in this batch (one batch may not
				// delete a pair twice or both insert and delete it).
				ok := false
				for attempt := 0; attempt < 16; attempt++ {
					ei := int64(r.next() % uint64(cur.NumEdges()))
					src := graph.Node(sort.Search(n, func(v int) bool { return prefix[v+1] > ei }))
					c := adj.Cursor(src)
					var dst graph.Node
					for i := prefix[src]; i <= ei; i++ {
						dst, _ = c.Next()
					}
					k := key(src, dst)
					if _, dup := deleted[k]; dup {
						continue
					}
					if _, dup := inserted[k]; dup {
						continue
					}
					deleted[k] = struct{}{}
					ups = append(ups, graph.EdgeUpdate{Op: graph.OpDelete, Src: src, Dst: dst})
					ok = true
					break
				}
				if ok {
					continue
				}
				// Dense batch over a tiny graph: fall through to an insert.
			}
			src := graph.Node(r.intn(n))
			dst := graph.Node(r.intn(n))
			k := key(src, dst)
			if _, dup := deleted[k]; dup {
				redraws++
				continue // inserting a pair deleted in this batch is invalid
			}
			redraws = 0
			inserted[k] = struct{}{}
			u := graph.EdgeUpdate{Op: graph.OpInsert, Src: src, Dst: dst}
			if weighted {
				u.Weight = uint32(1 + r.intn(weightMax))
			}
			ups = append(ups, u)
		}
		next, delta, err := cur.Apply(ups)
		if err != nil {
			return nil, fmt.Errorf("gen: generated batch %d does not apply: %w", b, err)
		}
		stream = append(stream, ups)
		cur = next
		if len(delta.DegChanged) > 0 {
			for _, v := range delta.DegChanged {
				deg[v] = cur.OutDegree(v)
			}
			for v := int(delta.DegChanged[0]); v < n; v++ {
				prefix[v+1] = prefix[v] + deg[v]
			}
		}
	}
	return stream, nil
}
