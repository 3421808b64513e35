package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code around a
// call into a layer. Spans of one workload op share Op; Parent is the ID of
// the span that caused this one, -1 for an op's root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Op      string  `json:"op"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// SelfUS is filled in when the trace is written: the span's duration
	// minus the part of it its children cover.
	SelfUS float64 `json:"self_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same helpers for free.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// start opens a span and returns its ID.
func (t *tracer) start(parent int, name, op string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartUS: t.us(now), EndUS: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].EndUS = t.us(now)
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a served job's
// queue wait and run time come from the daemon's JobStatus).
func (t *tracer) add(parent int, name, op string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the union of its children's intervals clipped to it.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartUS < spans[kids[b]].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := spans[k].StartUS, spans[k].EndUS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndUS - s.StartUS) - covered
	}
	return self
}

// write fills in self times and writes the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, us := range selfTimes(t.spans) {
		t.spans[i].SelfUS = us
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
