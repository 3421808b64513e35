package server

import (
	"testing"

	"pmemgraph/internal/frameworks"
)

// newStores returns the result cache and seed store exactly as New
// configures them (size functions and supersede rules included).
func newStores(t *testing.T, cfg Config) (*boundedStore[[]byte], *boundedStore[seedEntry]) {
	srv := New(cfg)
	t.Cleanup(srv.Close)
	return srv.cache, srv.seeds
}

func TestCacheGetPutStats(t *testing.T) {
	c, _ := newStores(t, Config{CacheBytes: 8})
	if _, ok := c.Get("k"); ok {
		t.Error("empty cache hit")
	}
	c.Put("k", []byte("value"))
	got, ok := c.Get("k")
	if !ok || string(got) != "value" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Racing misses that fill the same key must stay idempotent.
	c.Put("k", []byte("value"))
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 5 {
		t.Errorf("idempotent Put changed stats: %+v", st)
	}
}

// TestBoundedStore drives the one store through Put/invalidate sequences
// under the seed store's supersede rule (newest epoch wins, ties keep the
// richer seed) — the result cache is the same type with a never-supersede
// rule, covered above. After every step the byte bound must hold and the
// just-put entry, if it fits at all, must not be the one evicted.
func TestBoundedStore(t *testing.T) {
	type put struct {
		key   string
		epoch uint64
		elems int // seed size in 4-byte labels; 0 with drop set = invalidate
		drop  string
	}
	type want struct {
		key   string
		epoch uint64 // 0 = absent
		elems int
	}
	cases := []struct {
		name      string
		max       int64
		steps     []put
		want      []want
		evictions uint64
		dropped   int
	}{
		{name: "fifo eviction", max: 4 * 3,
			steps: []put{{key: "g0|bfs", epoch: 1, elems: 1}, {key: "g1|bfs", epoch: 1, elems: 1}, {key: "g2|bfs", epoch: 1, elems: 1},
				{key: "g3|bfs", epoch: 1, elems: 1}, {key: "g4|bfs", epoch: 1, elems: 1}},
			want:      []want{{"g0|bfs", 0, 0}, {"g1|bfs", 0, 0}, {"g2|bfs", 1, 1}, {"g3|bfs", 1, 1}, {"g4|bfs", 1, 1}},
			evictions: 2},
		{name: "prefix invalidation exact", max: 1 << 20,
			steps: []put{{key: graphKeyPrefix("web") + "1|bfs", epoch: 1, elems: 1}, {key: graphKeyPrefix("web") + "2|cc", epoch: 2, elems: 1},
				{key: graphKeyPrefix("webby") + "1|bfs", epoch: 1, elems: 1}, {drop: graphKeyPrefix("web")}},
			want:    []want{{"web|1|bfs", 0, 0}, {"web|2|cc", 0, 0}, {"webby|1|bfs", 1, 1}},
			dropped: 2},
		{name: "stale epoch loses", max: 1 << 20,
			steps: []put{{key: "g|cc", epoch: 5, elems: 100}, {key: "g|cc", epoch: 4, elems: 200}},
			want:  []want{{"g|cc", 5, 100}}},
		{name: "tie keeps richer", max: 1 << 20,
			steps: []put{{key: "g|cc", epoch: 5, elems: 100}, {key: "g|cc", epoch: 5, elems: 150}, {key: "g|cc", epoch: 5, elems: 60}},
			want:  []want{{"g|cc", 5, 150}}},
		{name: "newer epoch wins", max: 1 << 20,
			steps: []put{{key: "g|cc", epoch: 5, elems: 150}, {key: "g|cc", epoch: 6, elems: 30}},
			want:  []want{{"g|cc", 6, 30}}},
		{name: "byte bound evicts oldest", max: 4 * 100,
			steps:     []put{{key: "a|k", epoch: 1, elems: 50}, {key: "b|k", epoch: 1, elems: 80}},
			want:      []want{{"a|k", 0, 0}, {"b|k", 1, 80}},
			evictions: 1},
		// A value that alone exceeds the bound is rejected, not allowed to
		// wipe every other key on its way to being evicted.
		{name: "oversize rejected", max: 4 * 100,
			steps: []put{{key: "b|k", epoch: 1, elems: 80}, {key: "c|k", epoch: 1, elems: 500}},
			want:  []want{{"b|k", 1, 80}, {"c|k", 0, 0}}},
		// Replacing a key refreshes its eviction position: the just-updated
		// (hottest) entry must not be the one the byte bound evicts.
		{name: "supersede refreshes position", max: 4 * 100,
			steps:     []put{{key: "x|k", epoch: 1, elems: 40}, {key: "y|k", epoch: 1, elems: 40}, {key: "x|k", epoch: 2, elems: 70}},
			want:      []want{{"x|k", 2, 70}, {"y|k", 0, 0}},
			evictions: 1},
		// Regression: a same-key replacement that grows the last-inserted
		// entry past the bound must still drain the other keys, and a sole
		// entry growing to just under the bound survives.
		{name: "growth replace drains others", max: 4 * 100,
			steps: []put{{key: "p|k", epoch: 1, elems: 30}, {key: "q|k", epoch: 1, elems: 30}, {key: "q|k", epoch: 2, elems: 95},
				{key: "q|k", epoch: 3, elems: 99}},
			want:      []want{{"p|k", 0, 0}, {"q|k", 3, 99}},
			evictions: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, s := newStores(t, Config{SeedBytes: c.max})
			dropped := 0
			for i, step := range c.steps {
				if step.drop != "" {
					dropped += s.InvalidatePrefix(step.drop)
				} else {
					s.Put(step.key, seedEntry{Epoch: step.epoch, Seed: &frameworks.Seed{CCLabels: make([]uint32, step.elems)}})
					if _, ok := s.Get(step.key); !ok && int64(4*step.elems) <= c.max {
						t.Fatalf("step %d: the entry just put under %q was evicted", i, step.key)
					}
				}
				if st := s.Stats(); st.Bytes > c.max {
					t.Fatalf("step %d: store over budget: %d > %d", i, st.Bytes, c.max)
				}
			}
			var entries int
			var bytes int64
			for _, w := range c.want {
				e, ok := s.Get(w.key)
				if ok != (w.epoch != 0) || (ok && (e.Epoch != w.epoch || len(e.Seed.CCLabels) != w.elems)) {
					t.Errorf("%q: got %+v present=%v, want epoch %d with %d labels", w.key, e, ok, w.epoch, w.elems)
				}
				if w.epoch != 0 {
					entries++
					bytes += int64(4 * w.elems)
				}
			}
			if st := s.Stats(); st.Entries != entries || st.Bytes != bytes || st.Evictions != c.evictions || dropped != c.dropped {
				t.Errorf("stats %+v dropped %d, want %d entries / %d bytes / %d evictions / %d dropped",
					st, dropped, entries, bytes, c.evictions, c.dropped)
			}
		})
	}
}

func TestCacheKeyCoversExecutionInputs(t *testing.T) {
	base := jobPlan{
		profile: frameworks.Galois,
		ep:      &Epoch{Info: GraphInfo{Name: "web", Epoch: 3, Form: formCSR}},
		app:     "bfs",
		params:  frameworks.Params{Source: 5, Delta: 64, K: 10, Tol: 1e-4, Rounds: 50},
		threads: 8,
		opts:    frameworks.Galois.Options("bfs", 8),
		machine: "optane",
	}
	// The literal was captured from cacheKey at the commit before it became
	// plan.key(): cached bytes are addressed by this exact string.
	const pinned = "web|3|f=csr|bfs|Galois|t8|cfg{Rep:0 Dir:0 DenseFrac:0 PullFrac:0}|" +
		"opt{Threads:8 GraphPolicy:interleaved NodePolicy:interleaved PageSize:2097152 THP:false BothDirections:false Weighted:false AppDirect:false Backend:raw}|" +
		"par{Source:5 Delta:64 K:10 Tol:0.0001 Rounds:50}|m=optane"
	if got := base.key(); got != pinned {
		t.Errorf("key drifted:\n got %s\nwant %s", got, pinned)
	}

	seen := map[string]bool{base.key(): true}
	for i, mutate := range []func(*jobPlan){
		func(p *jobPlan) { p.ep = &Epoch{Info: GraphInfo{Name: "other", Epoch: 3, Form: formCSR}} },
		func(p *jobPlan) { p.ep = &Epoch{Info: GraphInfo{Name: "web", Epoch: 4, Form: formCSR}} },
		func(p *jobPlan) { p.ep = &Epoch{Info: GraphInfo{Name: "web", Epoch: 3, Form: formOverlay}} },
		func(p *jobPlan) { p.app, p.opts = "cc", p.profile.Options("cc", 8) },
		func(p *jobPlan) { p.threads, p.opts = 16, p.profile.Options("bfs", 16) },
		func(p *jobPlan) { p.profile, p.opts = frameworks.GBBS, frameworks.GBBS.Options("bfs", 8) },
		func(p *jobPlan) { p.params.Source = 6 },
		func(p *jobPlan) { p.machine = "dram" },
		func(p *jobPlan) { p.incremental = true },
		func(p *jobPlan) { p.shards = 1 },
		func(p *jobPlan) { p.shards = 8 },
	} {
		v := base
		mutate(&v)
		if seen[v.key()] {
			t.Errorf("variant %d collided with another key: %s", i, v.key())
		}
		seen[v.key()] = true
	}
}
