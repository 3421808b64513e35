package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// updateBody wraps a batch in the updates-endpoint request shape.
func updateBody(ups []graph.EdgeUpdate) map[string]any {
	return map[string]any{"updates": ups}
}

// nextBatch generates a valid batch for the server's CURRENT state of
// name (the generator validates against a snapshot of the live epoch —
// which may be overlay-form, so the materialized copy is the reference).
func nextBatch(t *testing.T, srv *Server, name string, size int, seed uint64) []graph.EdgeUpdate {
	t.Helper()
	g, _, ok := snapshot(srv.Registry(), name)
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	stream, err := gen.UpdateStream(g, 1, size, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	return stream[0]
}

func TestUpdatesEndpoint(t *testing.T) {
	srv := newTestServer(t, 2, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	info0 := currentInfo(srv.Registry(), "web")
	batch := nextBatch(t, srv, "web", 8, 0xFEED)
	resp, body := postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates returned %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Graph   GraphInfo `json:"graph"`
		Applied int       `json:"applied"`
	}
	mustUnmarshal(t, body, &out)
	if out.Applied != len(batch) {
		t.Fatalf("applied = %d, want %d", out.Applied, len(batch))
	}
	if out.Graph.Epoch <= info0.Epoch || out.Graph.Updates != 1 {
		t.Fatalf("epoch/updates not bumped: %+v (was epoch %d)", out.Graph, info0.Epoch)
	}
	g1, info1, _ := snapshot(srv.Registry(), "web")
	if info1.Epoch != out.Graph.Epoch || g1.NumEdges() != out.Graph.Edges {
		t.Fatalf("registry state %+v does not match response %+v", info1, out.Graph)
	}
	// The swapped-in epoch materializes to a graph sealed like a loaded one.
	if !g1.HasWeights() || !g1.HasIn() {
		t.Fatal("updated graph was not sealed")
	}
	if info1.Form != formOverlay || info1.OverlayEntries == 0 {
		t.Fatalf("updated epoch is not overlay-form: %+v", info1)
	}

	// Error surfaces.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/nosuch/updates", updateBody(batch))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: got %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(nil))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: got %d, want 400", resp.StatusCode)
	}
	bad := []graph.EdgeUpdate{{Op: graph.OpDelete, Src: 0, Dst: 0}}
	if _, _, err := graph.ApplyUpdates(g1, bad); err == nil {
		t.Skip("0->0 happens to exist; pick of invalid delete failed")
	}
	resp, body = postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid delete: got %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestRegistryConcurrentUpdatesConflict hammers ApplyUpdates from many
// goroutines: exactly the successful batches must be reflected in the
// final epoch/updates counters, and every failure must be the documented
// conflict error — never a silent lost update.
func TestRegistryConcurrentUpdatesConflict(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 7)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	applied := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				g, _, _ := snapshot(reg, "g")
				stream, err := gen.UpdateStream(g, 1, 4, uint64(w*100+i), false)
				if err != nil {
					t.Error(err)
					return
				}
				_, err = reg.ApplyUpdates("g", stream[0])
				switch {
				case err == nil:
					applied[w]++
				case errorsIsConflictOrValidation(err):
					// Lost the race (conflict), or the batch was built
					// against a state that changed under it (validation).
				default:
					t.Errorf("unexpected update error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range applied {
		total += n
	}
	info := currentInfo(reg, "g")
	if info.Updates != total {
		t.Fatalf("registry recorded %d batches, %d succeeded", info.Updates, total)
	}
}

// TestResolvedHandleStaysOnItsEpoch pins the epoch handle's immutability:
// a handle resolved before an update batch keeps describing the epoch it
// was resolved at — its info, its partition and its transition — while the
// registry moves on beside it. This is what lets a job resolve once and
// read everything off the handle with no epoch re-check.
func TestResolvedHandleStaysOnItsEpoch(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 7)); err != nil {
		t.Fatal(err)
	}
	batch := func(seed uint64) []graph.EdgeUpdate {
		g, _, _ := snapshot(reg, "g")
		stream, err := gen.UpdateStream(g, 1, 16, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		return stream[0]
	}
	// One batch then a checkpoint: a csr-form epoch that carries a
	// transition, so both partition and transition are readable.
	first, err := reg.ApplyUpdates("g", batch(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Checkpoint("g"); err != nil {
		t.Fatal(err)
	}
	old, _ := reg.Resolve("g")
	oldInfo, oldPrev := old.Info, old.prevEpoch
	oldDelta := old.TransitionFrom(oldPrev)
	if old.Overlay != nil || oldDelta == nil || oldInfo.Epoch != first.Epoch || oldPrev >= first.Epoch {
		t.Fatalf("checkpointed epoch lost its shape: %+v prev %d delta %v", oldInfo, oldPrev, oldDelta)
	}

	if _, err := reg.ApplyUpdates("g", batch(2)); err != nil {
		t.Fatal(err)
	}
	cur, _ := reg.Resolve("g")
	if d := cur.TransitionFrom(oldInfo.Epoch); cur == old || cur.Info.Epoch <= oldInfo.Epoch || d == nil || d == oldDelta {
		t.Fatalf("registry did not move on: cur %+v prev %d", cur.Info, cur.prevEpoch)
	}
	if old.Info != oldInfo || old.TransitionFrom(oldPrev) != oldDelta || old.TransitionFrom(oldInfo.Epoch) != nil {
		t.Fatalf("held handle changed under an update: %+v", old.Info)
	}
	part, err := old.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	if part.Source() != old.Base || part.Source().NumEdges() != oldInfo.Edges {
		t.Fatalf("old handle partitioned %d edges, want its own epoch's %d", part.Source().NumEdges(), oldInfo.Edges)
	}
	if again, _ := old.Partition(2); again != part {
		t.Fatal("partition not retained on the handle")
	}
}

func errorsIsConflictOrValidation(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "concurrently") || strings.Contains(err.Error(), "graph:"))
}

// TestJobsRacingUpdatesNeverObserveStaleResults is the cache-invalidation
// acceptance test (run under -race in CI's server conformance step): with
// jobs continuously racing update batches, any job submitted AFTER an
// update batch is acknowledged must return exactly the post-update bytes —
// a stale pre-update cache entry must be unservable, by epoch keying and
// the update-time invalidation.
func TestJobsRacingUpdatesNeverObserveStaleResults(t *testing.T) {
	srv := newTestServer(t, 4, 256)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	job := JobRequest{Graph: "erdos", App: "cc", Framework: "Galois", Threads: 8}
	submit := func() []byte {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", job)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("job returned %d: %s", resp.StatusCode, body)
		}
		return body
	}
	direct := func() []byte {
		// Run the SAME form the server would: post-update epochs are
		// overlay-form and their charging differs from a csr run, so the
		// byte comparison must go through the overlay path too.
		ep, ok := srv.Registry().Resolve("erdos")
		if !ok {
			t.Fatal("erdos not registered")
		}
		return directCC(t, ep.Base, ep.Overlay)
	}

	// Warm the pre-update cache so a stale entry EXISTS to be served.
	pre := submit()
	if !reflect.DeepEqual(pre, direct()) {
		t.Fatal("pre-update serving result diverged from direct run")
	}
	// The racing set: duplicates of the checked job, plus an incremental
	// and a sharded job. Whichever epoch each resolves at execution, it
	// reads that one handle throughout: the incremental job always
	// answers (seeded or full), and the sharded one either runs or is
	// refused by validation (the epoch is overlay-form once a batch landed
	// — at submit or at execution, 400 both ways) — never a 500.
	racers := []struct {
		req JobRequest
		ok  []int
	}{
		{job, []int{http.StatusOK}},
		{JobRequest{Graph: "erdos", App: "cc", Threads: 8, Incremental: true}, []int{http.StatusOK}},
		{JobRequest{Graph: "erdos", App: "cc", Threads: 8, Shards: 2}, []int{http.StatusOK, http.StatusBadRequest}},
	}
	for round := 0; round < 3; round++ {
		// Background jobs race the update application.
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The plain job's value is checked implicitly: the
				// post-round submission pins the final state.
				r := racers[i%len(racers)]
				resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", r.req)
				if !slices.Contains(r.ok, resp.StatusCode) {
					t.Errorf("racing %+v returned %d: %s", r.req, resp.StatusCode, body)
				}
			}(i)
		}
		batch := nextBatch(t, srv, "erdos", 8, uint64(0xACE0+round))
		resp, body := postJSON(t, ts.URL+"/v1/graphs/erdos/updates", updateBody(batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update round %d: %d %s", round, resp.StatusCode, body)
		}
		// The update is acknowledged: from here on, served bytes must be
		// the post-update bytes, even though the pre-update result was
		// cached moments ago.
		want := direct()
		if got := submit(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: job submitted after update served stale or wrong bytes", round)
		}
		wg.Wait()
	}
}

// TestUpdateInvalidatesOnlyThatGraph pins the targeted invalidation: an
// update batch drops the updated graph's cache entries and nobody else's.
func TestUpdateInvalidatesOnlyThatGraph(t *testing.T) {
	srv := newTestServer(t, 2, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cacheState := func(req JobRequest) string {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache")
	}
	webJob := JobRequest{Graph: "web", App: "bfs", Threads: 8}
	kronJob := JobRequest{Graph: "kron", App: "bfs", Threads: 8}
	cacheState(webJob)
	cacheState(kronJob)
	if got := cacheState(kronJob); got != "hit" {
		t.Fatalf("kron warm lookup was %q, want hit", got)
	}

	resp, body := postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(nextBatch(t, srv, "web", 4, 0xD00D)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Dropped int `json:"cache_entries_dropped"`
	}
	mustUnmarshal(t, body, &out)
	if out.Dropped == 0 {
		t.Fatal("update dropped no cache entries despite a cached web result")
	}
	if got := cacheState(kronJob); got != "hit" {
		t.Fatalf("kron entry lost to web's update: %q", got)
	}
	if got := cacheState(webJob); got != "miss" {
		t.Fatalf("web served %q after its update, want a fresh miss", got)
	}
}

// TestIncrementalJobServing drives the opt-in incremental path end to end:
// seedless fallback, then seeded incremental execution after each update
// batch, with outputs always byte-identical to a direct full recompute on
// the current epoch and cache hits byte-identical to the first serving.
func TestIncrementalJobServing(t *testing.T) {
	srv := newTestServer(t, 2, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	directFull := func(app string) *analytics.Result {
		// Only outputs are compared below, so a materialized snapshot run
		// (csr form) is a valid reference for the overlay-form serving.
		g, _, _ := snapshot(srv.Registry(), "web")
		p, _ := frameworks.ByName("Galois")
		res, _, err := p.Plan(g, app, 8, frameworks.DefaultParams(g)).Run(memsim.NewMachine(srv.cfg.Machine))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runInc := func(app string) *analytics.Result {
		resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1",
			JobRequest{Graph: "web", App: app, Threads: 8, Incremental: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("incremental %s: %d %s", app, resp.StatusCode, body)
		}
		res, err := analytics.UnmarshalResult(body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Epoch 0: no update has happened — both apps fall back to the full
	// algorithms and record seeds.
	if res := runInc("cc"); res.Algorithm == "inc-unionfind" {
		t.Fatal("cc ran incrementally without a prior epoch")
	}
	if res := runInc("pr"); res.Algorithm != "topo-pull" {
		t.Fatalf("seedless pr fallback ran %q", res.Algorithm)
	}
	if st := srv.Stats(); st.Seeds.Entries != 2 {
		t.Fatalf("seed store holds %d entries, want 2", st.Seeds.Entries)
	}

	for round := 0; round < 2; round++ {
		resp, body := postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(nextBatch(t, srv, "web", 6, uint64(0xBEE0+round))))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %d %s", resp.StatusCode, body)
		}
		cc := runInc("cc")
		if cc.Algorithm != "inc-unionfind" {
			t.Fatalf("round %d: cc did not run incrementally (%q)", round, cc.Algorithm)
		}
		if want := directFull("cc"); !reflect.DeepEqual(cc.Labels, want.Labels) {
			t.Fatalf("round %d: incremental cc labels differ from full recompute", round)
		}
		pr := runInc("pr")
		if pr.Algorithm != "topo-pull-inc" {
			t.Fatalf("round %d: pr did not run incrementally (%q)", round, pr.Algorithm)
		}
		want := directFull("pr")
		if pr.Rounds != want.Rounds || !reflect.DeepEqual(pr.Rank, want.Rank) {
			t.Fatalf("round %d: incremental pr output differs from full recompute", round)
		}
	}

	// Warm lookups are byte-identical to the first incremental serving.
	resp, first := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		JobRequest{Graph: "web", App: "pr", Threads: 8, Incremental: true})
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("expected warm incremental lookup, got %q", resp.Header.Get("X-Cache"))
	}
	resp2, second := postJSON(t, ts.URL+"/v1/jobs?wait=1",
		JobRequest{Graph: "web", App: "pr", Threads: 8, Incremental: true})
	_ = resp2
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm incremental lookups not byte-identical")
	}
}

// TestErrorBodiesAreStructuredJSON pins the uniform error contract: every
// error response — handler-produced and mux-produced alike — is
// application/json with an {"error": "..."} body.
func TestErrorBodiesAreStructuredJSON(t *testing.T) {
	srv := newTestServer(t, 1, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, method, path, body string
		wantCode                 int
	}{
		{"unmatched path", "GET", "/v1/nope", "", http.StatusNotFound},
		{"method mismatch", "DELETE", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"unknown graph job", "POST", "/v1/jobs", `{"graph":"nosuch","app":"bfs"}`, http.StatusBadRequest},
		{"malformed body", "POST", "/v1/jobs", `{`, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound},
		{"unknown graph updates", "POST", "/v1/graphs/nosuch/updates", `{"updates":[{"op":"insert","src":0,"dst":1}]}`, http.StatusNotFound},
		{"evict unknown", "DELETE", "/v1/graphs/nosuch", "", http.StatusNotFound},
		{"incremental bfs", "POST", "/v1/jobs", `{"graph":"web","app":"bfs","incremental":true}`, http.StatusBadRequest},
		{"oversized body", "POST", "/v1/jobs", `{"graph":"` + strings.Repeat("a", maxRequestBody) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("body is not an {\"error\": ...} object: %v", err)
			}
			if body.Error == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// mustUnmarshal decodes JSON or fails the test.
func mustUnmarshal(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshaling %s: %v", data, err)
	}
}
