package server

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/graph"
)

// TestShardedJobsMatchUnsharded locks the serving-layer end of the sharded
// determinism contract: for the apps with BSP kernels, output arrays from
// sharded jobs are identical to each other across shard counts, and the
// shard count is part of the cache key (differently-sharded submissions
// both execute; repeats of one width hit).
func TestShardedJobsMatchUnsharded(t *testing.T) {
	srv := newTestServer(t, 2, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run := func(shards int) (analytics.Result, string) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{
			Graph: "web", App: "bfs", Shards: shards,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("shards=%d: status %d: %s", shards, resp.StatusCode, data)
		}
		var res analytics.Result
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		return res, resp.Header.Get("X-Cache")
	}

	one, miss1 := run(1)
	four, miss4 := run(4)
	if miss1 != "miss" || miss4 != "miss" {
		t.Fatalf("first submissions per width should miss (got %q, %q): widths must not alias", miss1, miss4)
	}
	if !reflect.DeepEqual(one.Dist, four.Dist) {
		t.Fatal("bfs distances differ between shards=1 and shards=4")
	}
	if one.Seconds == four.Seconds {
		t.Error("per-width timing identical; shard count seems uncharged")
	}
	if _, cache := run(4); cache != "hit" {
		t.Errorf("repeat of shards=4 should hit the cache, got %q", cache)
	}
	if four.Algorithm != "shard-bsp" {
		t.Errorf("sharded job ran %q, want shard-bsp", four.Algorithm)
	}
}

// TestShardedJobValidation walks the request-shape rejections.
func TestShardedJobValidation(t *testing.T) {
	srv := newTestServer(t, 1, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := []JobRequest{
		{Graph: "web", App: "bfs", Shards: -2},
		{Graph: "web", App: "bfs", Shards: DefaultMaxShards + 1},
		{Graph: "web", App: "tc", Shards: 2}, // no BSP kernel
		{Graph: "web", App: "pr", Shards: 2, Incremental: true},
	}
	for _, req := range bad {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode != 400 {
			t.Errorf("%+v accepted: status %d: %s", req, resp.StatusCode, data)
		}
	}

	// Overlay-form epochs cannot be partitioned; a checkpoint restores
	// sharded eligibility.
	if _, err := srv.Registry().ApplyUpdates("erdos", []graph.EdgeUpdate{
		{Op: graph.OpInsert, Src: 1, Dst: 2},
	}); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Graph: "erdos", App: "bfs", Shards: 2})
	if resp.StatusCode != 400 {
		t.Fatalf("overlay-form graph accepted a sharded job: status %d: %s", resp.StatusCode, data)
	}
	// The same refusal raised at execution time — the job was admitted
	// against a csr-form epoch that a batch then replaced — is still a 400,
	// not a 500 execution failure.
	admitted, err := srv.sched.Submit(JobRequest{Graph: "erdos", App: "bfs", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-admitted.Done()
	rec := httptest.NewRecorder()
	srv.writeResult(rec, admitted)
	if rec.Code != 400 {
		t.Fatalf("execution-time refusal answered %d: %s", rec.Code, rec.Body)
	}
	if _, err := srv.Registry().Checkpoint("erdos"); err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.URL+"/v1/jobs?wait=1", JobRequest{Graph: "erdos", App: "bfs", Shards: 2})
	if resp.StatusCode != 200 {
		t.Fatalf("post-checkpoint sharded job failed: status %d: %s", resp.StatusCode, data)
	}
}
