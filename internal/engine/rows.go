package engine

import (
	"pmemgraph/internal/core"
	"pmemgraph/internal/graph"
)

// progs is one round's row programs, per direction scanned. A row program
// serves both directions as given; a per-edge Push or Pull runs as one
// adapter per direction, since its edge indices are the direction's. wOut
// and wIn report whether the rows come with their weights.
type progs struct {
	pushOut, pushIn PushRow
	pullIn, pullOut PullRow
	wOut, wIn       bool
}

// programs validates args and returns its row programs. It panics, naming
// the fields, when args combines fields that exclude each other: a kernel
// bug no validated plan reaches.
func (e *Engine) programs(args *EdgeMapArgs) progs {
	excl := func(set bool, field, other string) {
		if set {
			panic("engine: EdgeMapArgs." + field + " excludes EdgeMapArgs." + other)
		}
	}
	if args.Gather != nil {
		excl(args.PullRow != nil, "Gather", "PullRow")
		excl(args.Pull != nil, "Gather", "Pull")
		excl(args.PushRow != nil, "Gather", "PushRow")
		excl(args.Push != nil, "Gather", "Push")
		excl(args.PullCond != nil, "Gather", "PullCond")
		excl(args.Symmetric, "Gather", "Symmetric")
		return progs{}
	}
	excl(args.Push != nil && args.PushRow != nil, "Push", "PushRow")
	excl(args.Pull != nil && args.PullRow != nil, "Pull", "PullRow")
	p := progs{
		pushOut: args.PushRow, pushIn: args.PushRow,
		pullIn: args.PullRow, pullOut: args.PullRow,
		wOut: args.Weighted && e.out.RowWeights != nil,
		wIn:  args.Weighted && e.in.RowWeights != nil,
	}
	if args.Push != nil {
		p.pushOut, p.pushIn = edgePush(&e.out, args.Push), edgePush(&e.in, args.Push)
	}
	if args.Pull != nil {
		p.pullIn, p.pullOut = edgePull(&e.in, args.Pull), edgePull(&e.out, args.Pull)
	}
	return p
}

// Rows is one direction's rows as a range program reads them.
type Rows struct {
	av  *core.AdjView
	buf *core.RowBuf
}

// Row returns v's row (core.AdjView.ReadRow): the graph's own storage, or
// for an overlay-touched vertex its merged row in the calling thread's
// buffer, valid until the thread's next Row. It must be neither modified
// nor retained.
func (r Rows) Row(v graph.Node) []graph.Node {
	row, _ := r.av.ReadRow(r.buf, v, false)
	return row
}

// edgePush runs a per-edge push as a row program over av's rows. Edge
// indices count up from the row's base on a raw row and come from a Cursor
// walked beside a merged one.
func edgePush(av *core.AdjView, push func(u, d graph.Node, ei int64) bool) PushRow {
	return func(u graph.Node, row []graph.Node, _ []uint32, claims []graph.Node) []graph.Node {
		if av.Merged(u) {
			c := av.Ov.Cursor(u)
			for _, d := range row {
				c.Next()
				if push(u, d, c.EI()) {
					claims = append(claims, d)
				}
			}
			return claims
		}
		ei := av.Rows.Offsets[u]
		for _, d := range row {
			if push(u, d, ei) {
				claims = append(claims, d)
			}
			ei++
		}
		return claims
	}
}

// edgePull runs a per-edge pull as a row program over av's rows, with edge
// indices as edgePush hands them out.
func edgePull(av *core.AdjView, pull func(v, u graph.Node, ei int64) (bool, bool)) PullRow {
	return func(v graph.Node, row []graph.Node, _ []uint32) (active, stopped bool, k int) {
		if av.Merged(v) {
			c := av.Ov.Cursor(v)
			for _, u := range row {
				c.Next()
				a, stop := pull(v, u, c.EI())
				k++
				active = active || a
				if stop {
					return active, true, k
				}
			}
			return active, false, k
		}
		ei := av.Rows.Offsets[v]
		for _, u := range row {
			a, stop := pull(v, u, ei)
			k++
			active = active || a
			if stop {
				return active, true, k
			}
			ei++
		}
		return active, false, k
	}
}
