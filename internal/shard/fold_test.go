package shard

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pmemgraph/internal/engine"
	"pmemgraph/internal/graph"
)

// TestFoldProperty drives the scatter barrier's fold the way a superstep
// does: random claim multisets, operands 0 and 2^32-1 among them, are
// folded from several goroutines in shuffled orders, and then owners of
// random contiguous ranges (often sharing a bit-vector word) take their
// claimed destinations concurrently. Every owner must see its claimed
// destinations in ascending order with the sequential min or sum of their
// operands, and leave every accumulator at the identity and the claimed
// set empty.
func TestFoldProperty(t *testing.T) {
	const n = 300
	e := &Engine{seen: engine.NewDense(n), acc: make([]atomic.Uint64, n)}
	type claim struct {
		d   graph.Node
		val uint64
	}
	for _, sum := range []bool{false, true} {
		rng := rand.New(rand.NewSource(91))
		for iter := 0; iter < 60; iter++ {
			var claims []claim
			want := map[graph.Node]uint64{}
			for range 1 + rng.Intn(3*n) {
				d := graph.Node(rng.Intn(n))
				var val uint64
				switch rng.Intn(4) {
				case 0:
					val = 0
				case 1:
					val = math.MaxUint32
				default:
					val = uint64(rng.Intn(1000))
				}
				claims = append(claims, claim{d, val})
				if old, ok := want[d]; !ok {
					want[d] = val
				} else if sum {
					want[d] = old + val
				} else {
					want[d] = min(old, val)
				}
			}

			// Emit: each goroutine folds its share in its own shuffled order.
			var wg sync.WaitGroup
			threads := 1 + rng.Intn(6)
			perm := rng.Perm(len(claims))
			for th := range threads {
				order := rand.New(rand.NewSource(rng.Int63())).Perm(len(claims))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, k := range order {
						if perm[k]%threads == th {
							e.fold(claims[k].d, claims[k].val, sum)
						}
					}
				}()
			}
			wg.Wait()

			// Take: owners of random contiguous ranges, concurrently.
			cuts := []graph.Node{0, n}
			for range rng.Intn(8) {
				cuts = append(cuts, graph.Node(rng.Intn(n)))
			}
			slices.Sort(cuts)
			owners := len(cuts) - 1
			gotD := make([][]graph.Node, owners)
			gotV := make([][]uint64, owners)
			for o := range owners {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.seen.ForEachInRange(cuts[o], cuts[o+1], func(d graph.Node) {
						gotD[o] = append(gotD[o], d)
						gotV[o] = append(gotV[o], e.take(d, sum))
					})
				}()
			}
			wg.Wait()

			var ds []graph.Node
			for o := range owners {
				ds = append(ds, gotD[o]...)
				for k, d := range gotD[o] {
					if gotV[o][k] != want[d] {
						t.Fatalf("sum=%v iter %d: folded %d to %d, want %d", sum, iter, d, gotV[o][k], want[d])
					}
				}
			}
			if len(ds) != len(want) {
				t.Fatalf("sum=%v iter %d: owners took %d destinations, want %d", sum, iter, len(ds), len(want))
			}
			for k := 1; k < len(ds); k++ {
				if ds[k-1] >= ds[k] {
					t.Fatalf("sum=%v iter %d: destinations not strictly ascending at %d", sum, iter, k)
				}
			}
			if e.seen.Count() != 0 {
				t.Fatalf("sum=%v iter %d: claimed set left dirty", sum, iter)
			}
			for d := range e.acc {
				if x := e.acc[d].Load(); x != 0 {
					t.Fatalf("sum=%v iter %d: accumulator %d left at %#x, not the identity", sum, iter, d, x)
				}
			}
		}
	}
}
