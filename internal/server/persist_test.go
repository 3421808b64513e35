package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// regBatch generates one valid update batch against the registry's
// CURRENT state of name (materialized, so overlay epochs validate too).
func regBatch(t *testing.T, reg *Registry, name string, size int, seed uint64, withDeletes bool) []graph.EdgeUpdate {
	t.Helper()
	g, _, ok := snapshot(reg, name)
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	stream, err := gen.UpdateStream(g, 1, size, seed, withDeletes)
	if err != nil {
		t.Fatal(err)
	}
	return stream[0]
}

// TestRegistryPersistAndRecover round-trips the WAL: every applied batch
// must be reconstructable by a fresh registry over the same data
// directory, and the recovered registry must keep accepting (and
// persisting) further batches.
func TestRegistryPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistryAt(dir, -1) // compaction off: recovery must replay the log
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(500, 3000, 11)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := reg.ApplyUpdates("g", regBatch(t, reg, "g", 8, uint64(0xA0+i), true)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	want, wantInfo, _ := snapshot(reg, "g")

	reg2 := NewRegistryAt(dir, -1)
	infos, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Updates != 3 {
		t.Fatalf("recovered %+v, want g with 3 replayed batches", infos)
	}
	if infos[0].Form != formOverlay {
		t.Fatalf("recovered form %q, want overlay (log replayed, not compacted)", infos[0].Form)
	}
	got, gotInfo, ok := snapshot(reg2, "g")
	if !ok {
		t.Fatal("recovered graph not resident")
	}
	if gotInfo.Edges != wantInfo.Edges || gotInfo.Nodes != wantInfo.Nodes {
		t.Fatalf("recovered info %+v, want %+v", gotInfo, wantInfo)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered graph state differs from the state before the restart")
	}

	// The recovered registry keeps appending to the same log.
	if _, err := reg2.ApplyUpdates("g", regBatch(t, reg2, "g", 6, 0xB7, true)); err != nil {
		t.Fatal(err)
	}
	reg3 := NewRegistryAt(dir, -1)
	infos, err = reg3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Updates != 4 {
		t.Fatalf("second recovery %+v, want 4 replayed batches", infos)
	}
}

// TestRecoverDropsTornTail crash-tests the log: a record torn mid-write
// (simulated by truncating the file) must cost exactly the torn batch —
// the complete prefix replays, the log is rewritten clean, and appends
// continue from the surviving state.
func TestRecoverDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistryAt(dir, -1)
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 5)); err != nil {
		t.Fatal(err)
	}
	var want2 *graph.Graph
	for i := 0; i < 3; i++ {
		if _, err := reg.ApplyUpdates("g", regBatch(t, reg, "g", 8, uint64(0xD0+i), true)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 1 {
			want2, _, _ = snapshot(reg, "g")
		}
	}

	walPath := filepath.Join(dir, "g", walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := NewRegistryAt(dir, -1)
	infos, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Updates != 2 {
		t.Fatalf("recovered %+v, want exactly the 2 complete batches", infos)
	}
	got, _, _ := snapshot(reg2, "g")
	if !reflect.DeepEqual(got, want2) {
		t.Fatal("recovered state differs from the state after the surviving batches")
	}

	// Recovery rewrote the log to the surviving prefix: it parses cleanly
	// end to end with no torn tail.
	wf, err := os.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := graph.ReadLog(wf)
	wf.Close()
	if err != nil || len(clean) != 2 {
		t.Fatalf("rewritten log holds %d batches (err %v), want 2", len(clean), err)
	}

	// And the store still accepts batches on top of the recovered state.
	if _, err := reg2.ApplyUpdates("g", regBatch(t, reg2, "g", 4, 0xE1, false)); err != nil {
		t.Fatal(err)
	}
	reg3 := NewRegistryAt(dir, -1)
	if infos, err = reg3.Recover(); err != nil || infos[0].Updates != 3 {
		t.Fatalf("post-tear append not recovered: %+v, %v", infos, err)
	}
}

// TestCheckpointEndpointCompactsSameEpoch drives POST
// /v1/graphs/{name}/checkpoint: the epoch's form flips to csr WITHOUT an
// epoch bump, kernel outputs are unchanged, and the first post-checkpoint
// job is a cache miss (form-qualified key) rather than a stale overlay hit.
func TestCheckpointEndpointCompactsSameEpoch(t *testing.T) {
	srv := newTestServer(t, 2, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/graphs/web/updates", updateBody(nextBatch(t, srv, "web", 8, 0xC0)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d %s", resp.StatusCode, body)
	}
	info1 := currentInfo(srv.Registry(), "web")
	if info1.Form != formOverlay {
		t.Fatalf("post-update form %q, want overlay", info1.Form)
	}

	job := JobRequest{Graph: "web", App: "cc", Threads: 8}
	run := func() (*http.Response, []byte) { return postJSON(t, ts.URL+"/v1/jobs?wait=1", job) }
	respA, bytesA := run()
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("job: %d %s", respA.StatusCode, bytesA)
	}
	if resp, _ := run(); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("overlay-form result did not cache")
	}

	resp, body = postJSON(t, ts.URL+"/v1/graphs/web/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Graph GraphInfo `json:"graph"`
	}
	mustUnmarshal(t, body, &out)
	if out.Graph.Form != formCSR || out.Graph.OverlayEntries != 0 {
		t.Fatalf("post-checkpoint info %+v, want csr form", out.Graph)
	}
	if out.Graph.Epoch != info1.Epoch {
		t.Fatalf("checkpoint bumped the epoch %d -> %d; compaction is a form change, not a data change",
			info1.Epoch, out.Graph.Epoch)
	}

	respB, bytesB := run()
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("post-checkpoint job: %d %s", respB.StatusCode, bytesB)
	}
	if respB.Header.Get("X-Cache") != "miss" {
		t.Fatalf("post-checkpoint lookup was %q; csr form must not alias the overlay entry",
			respB.Header.Get("X-Cache"))
	}
	resA, err := analytics.UnmarshalResult(bytesA)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := analytics.UnmarshalResult(bytesB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA.Labels, resB.Labels) {
		t.Fatal("checkpoint changed kernel outputs")
	}

	resp, _ = postJSON(t, ts.URL+"/v1/graphs/nosuch/checkpoint", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph checkpoint: %d, want 404", resp.StatusCode)
	}
}

// TestAutoCompactionMergesAndTruncates forces the background compactor
// (threshold ~0) and verifies the full cycle: overlay merged into a csr
// epoch in place, the snapshot on disk subsumes the log, and recovery
// needs no replay.
func TestAutoCompactionMergesAndTruncates(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistryAt(dir, 1<<30) // |E|/div == 0: any overlay entry triggers
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 3)); err != nil {
		t.Fatal(err)
	}
	info, err := reg.ApplyUpdates("g", regBatch(t, reg, "g", 8, 0xF00, true))
	if err != nil {
		t.Fatal(err)
	}
	reg.Quiesce()

	cur := currentInfo(reg, "g")
	if cur.Form != formCSR || cur.OverlayEntries != 0 {
		t.Fatalf("compactor left %+v, want csr form", cur)
	}
	if cur.Epoch != info.Epoch {
		t.Fatalf("compaction bumped epoch %d -> %d", info.Epoch, cur.Epoch)
	}
	if _, err := os.Stat(basePath(filepath.Join(dir, "g"), 1)); err != nil {
		t.Fatalf("snapshot subsuming batch 1 missing: %v", err)
	}
	if st, err := os.Stat(filepath.Join(dir, "g", walFileName)); err != nil || st.Size() != 0 {
		t.Fatalf("WAL not truncated after compaction: %v (size %d)", err, st.Size())
	}

	want, _, _ := snapshot(reg, "g")
	reg2 := NewRegistryAt(dir, 1<<30)
	infos, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Updates != 0 || infos[0].Form != formCSR {
		t.Fatalf("recovery after compaction %+v, want snapshot-only csr load", infos)
	}
	got, _, _ := snapshot(reg2, "g")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot-recovered graph differs from the compacted resident graph")
	}
}

// TestServerKillRestartRecoversEpochs is the durability acceptance test:
// kill a server after acknowledged update batches, restart over the same
// data directory, and every batch must be recovered — the restarted
// server serves byte-identical result bytes for the same job.
func TestServerKillRestartRecoversEpochs(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		return New(Config{Machine: testMachine(), Workers: 2, DataDir: dir, CompactDiv: -1})
	}
	jobs := []JobRequest{
		{Graph: "web", App: "cc", Threads: 8},
		{Graph: "web", App: "pr", Threads: 4},
	}
	runAll := func(ts *httptest.Server) [][]byte {
		var out [][]byte
		for _, j := range jobs {
			resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", j)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %+v: %d %s", j, resp.StatusCode, body)
			}
			out = append(out, body)
		}
		return out
	}

	srv := mk()
	if _, err := srv.Registry().Add("web", "direct", gen.WebCrawl(800, 5, 40, 9)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/graphs/web/updates",
			updateBody(nextBatch(t, srv, "web", 8, uint64(0x51EE+i))))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, resp.StatusCode, body)
		}
	}
	want := runAll(ts)
	info := currentInfo(srv.Registry(), "web")
	ts.Close()
	srv.Close() // "kill": nothing is flushed here that the WAL hasn't already made durable

	srv2 := mk()
	defer srv2.Close()
	infos, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Updates != 3 {
		t.Fatalf("restart recovered %+v, want web with all 3 acknowledged batches", infos)
	}
	info2 := currentInfo(srv2.Registry(), "web")
	if info2.Edges != info.Edges || info2.Form != info.Form || info2.OverlayEntries != info.OverlayEntries {
		t.Fatalf("recovered epoch %+v differs from pre-kill epoch %+v", info2, info)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got := runAll(ts2)
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("job %+v not byte-identical across kill-and-restart", jobs[i])
		}
	}
}
