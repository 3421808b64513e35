package graph

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// This file is the batched edge-update log: the mutable-graph seam of the
// streaming-update path (GraphBolt/Aspen-style batched deltas). Graphs stay
// immutable — ApplyUpdates validates a batch against the current graph and
// produces a NEW graph via a merge rebuild, which the serving layer seals
// as the next epoch. Update application models graph (re)construction and,
// like loading, is never charged to the simulated machine (the paper
// excludes construction time from all reported numbers).

// UpdateOp distinguishes edge insertion from edge deletion.
type UpdateOp uint8

const (
	// OpInsert adds one directed edge (a parallel copy if the pair
	// already exists).
	OpInsert UpdateOp = iota
	// OpDelete removes every copy of a directed edge pair; the pair must
	// exist in the graph the batch is applied to.
	OpDelete
)

// String implements fmt.Stringer ("insert" / "delete").
func (op UpdateOp) String() string {
	if op == OpDelete {
		return "delete"
	}
	return "insert"
}

// MarshalJSON emits the wire form ("insert" / "delete") shared by the
// serving layer's updates endpoint and graphgen's update-stream files.
func (op UpdateOp) MarshalJSON() ([]byte, error) {
	return json.Marshal(op.String())
}

// UnmarshalJSON parses the wire form.
func (op *UpdateOp) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "insert":
		*op = OpInsert
	case "delete":
		*op = OpDelete
	default:
		return fmt.Errorf("graph: unknown update op %q (want insert or delete)", s)
	}
	return nil
}

// EdgeUpdate is one entry of a batched edge-update log. The json tags
// define the wire format accepted by POST /v1/graphs/{name}/updates and
// emitted by graphgen -updates.
type EdgeUpdate struct {
	Op  UpdateOp `json:"op"`
	Src Node     `json:"src"`
	Dst Node     `json:"dst"`
	// Weight applies to inserts on weighted graphs (0 is clamped to 1,
	// the generators' minimum); ignored for deletes.
	Weight uint32 `json:"weight,omitempty"`
}

// Delta summarizes one applied batch for the incremental kernels: which
// vertices' adjacency changed, and in which roles. All slices are
// deduplicated and sorted by vertex ID, so consumers iterating them are
// deterministic by construction.
type Delta struct {
	// Inserts and Deletes count the batch's operations.
	Inserts, Deletes int
	// HasDeletes reports whether any edge was removed (label-propagation
	// seeds cannot survive deletions; incremental cc falls back).
	HasDeletes bool
	// Dsts are the destinations of every inserted or deleted edge (the
	// vertices whose in-neighborhood changed).
	Dsts []Node
	// DegChanged are the sources whose out-degree changed (net inserts
	// minus deletes nonzero, counting every removed parallel copy) — the
	// vertices whose pagerank contribution divisor moved.
	DegChanged []Node
	// Inserted lists the inserted edges sorted by (src, dst), the pairs
	// incremental connected components hooks with union-by-min.
	Inserted []Edge
}

// Edges returns the total number of operations in the batch.
func (d *Delta) Edges() int { return d.Inserts + d.Deletes }

// pairKey packs a directed edge for set membership.
func pairKey(s, d Node) uint64 { return uint64(s)<<32 | uint64(d) }

// countEqual counts the entries of the sorted row equal to d: two binary
// searches, O(log len) however many parallel copies there are.
func countEqual(row []Node, d Node) int64 {
	lo, _ := slices.BinarySearch(row, d)
	hi := lo + sort.Search(len(row)-lo, func(i int) bool { return row[lo+i] > d })
	return int64(hi - lo)
}

// outCopies counts the parallel copies of the directed pair (s, d) in s's
// sorted out-row (FromEdges and Materialize both guarantee per-source
// ordering).
func (g *Graph) outCopies(s, d Node) int64 {
	return countEqual(g.OutEdges[g.OutOffsets[s]:g.OutOffsets[s+1]], d)
}

// ValidateUpdates checks a batch against g without applying it: endpoints
// must lie in [0, n) (updates never grow the vertex set), a pair may not be
// both inserted and deleted in one batch (the net effect would be
// order-dependent), the same pair may not be deleted twice, inserts may not
// smuggle a weight into an unweighted graph (it would be silently dropped),
// deletes may not carry a weight at all, and every deleted pair must exist
// in g. It reuses the FromEdges hardening posture: reject hostile input
// before any allocation proportional to it succeeds. Delete existence is a
// per-source binary search over the sorted out-row — O(batch·log d) total,
// never an O(E) CSR scan.
func ValidateUpdates(g *Graph, ups []EdgeUpdate) error {
	return validateUpdates(g.NumNodes(), g.HasWeights(), g.outCopies, ups)
}

// validateUpdates is the batch validator shared by ValidateUpdates (copies
// answered by the base CSR) and Overlay.Apply (copies answered by the
// merged base+delta view).
func validateUpdates(n int, weighted bool, copies func(s, d Node) int64, ups []EdgeUpdate) error {
	n64 := int64(n)
	deletes := make(map[uint64]struct{})
	inserts := make(map[uint64]struct{})
	for i, u := range ups {
		if int64(u.Src) >= n64 || int64(u.Dst) >= n64 {
			return fmt.Errorf("graph: update %d (%s %d -> %d) endpoint out of range [0, %d)", i, u.Op, u.Src, u.Dst, n64)
		}
		key := pairKey(u.Src, u.Dst)
		switch u.Op {
		case OpInsert:
			if u.Weight != 0 && !weighted {
				return fmt.Errorf("graph: update %d (insert %d -> %d) carries weight %d into an unweighted graph", i, u.Src, u.Dst, u.Weight)
			}
			if _, ok := deletes[key]; ok {
				return fmt.Errorf("graph: update %d inserts edge %d -> %d also deleted in this batch", i, u.Src, u.Dst)
			}
			inserts[key] = struct{}{}
		case OpDelete:
			if u.Weight != 0 {
				return fmt.Errorf("graph: update %d (delete %d -> %d) carries weight %d; deletes remove every copy and take no weight", i, u.Src, u.Dst, u.Weight)
			}
			if _, ok := inserts[key]; ok {
				return fmt.Errorf("graph: update %d deletes edge %d -> %d also inserted in this batch", i, u.Src, u.Dst)
			}
			if _, ok := deletes[key]; ok {
				return fmt.Errorf("graph: update %d deletes edge %d -> %d twice", i, u.Src, u.Dst)
			}
			deletes[key] = struct{}{}
			if copies(u.Src, u.Dst) == 0 {
				return fmt.Errorf("graph: update %d: delete of nonexistent edge %d -> %d", i, u.Src, u.Dst)
			}
		default:
			return fmt.Errorf("graph: update %d has unknown op %d", i, u.Op)
		}
	}
	return nil
}

// ApplyUpdates validates the batch against g and returns a new graph with
// it applied, plus the Delta the incremental kernels consume. g itself is
// never mutated — in-flight readers of the old epoch stay valid. Deletions
// remove every parallel copy of the named pair; insertions append one edge
// (carrying a weight iff g is weighted, clamped to >= 1 so generated
// weight invariants hold). The rebuild goes through the same deterministic
// per-source merge the delta-overlay form uses (base edges in base order,
// inserted copies of an equal (src, dst) pair after the surviving base
// copies, in batch order), so a merge-rebuilt epoch and an overlay epoch
// present byte-identical adjacency; the transpose and compressed encodings
// are NOT built here (the caller seals the new epoch as it would a loaded
// graph).
func ApplyUpdates(g *Graph, ups []EdgeUpdate) (*Graph, Delta, error) {
	ov, delta, err := ApplyOverlay(g, ups)
	if err != nil {
		return nil, Delta{}, err
	}
	return ov.Materialize(), delta, nil
}
