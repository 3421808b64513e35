package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/loadgen"
	"pmemgraph/internal/memsim"
)

func testMachine() memsim.MachineConfig {
	return memsim.Scaled(memsim.OptaneMachine(), 32)
}

// newTestServer builds a server over three small shared graphs.
func newTestServer(t *testing.T, workers, queueCap int) *Server {
	t.Helper()
	classes := DefaultClasses()
	for i := range classes {
		classes[i].QueueCap = queueCap
	}
	srv := New(Config{Machine: testMachine(), Workers: workers, Classes: classes})
	t.Cleanup(srv.Close)
	for name, g := range map[string]*graph.Graph{
		"web":   gen.WebCrawl(1200, 5, 60, 17),
		"erdos": gen.ErdosRenyi(900, 5400, 23),
		"kron":  gen.Kron(10, 8, 5),
	} {
		if _, err := srv.Registry().Add(name, "direct", g); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// directResult runs spec outside the server — a fresh machine over the
// same sealed graph, exactly like a standalone harness — and returns the
// canonical result bytes the server must match byte-for-byte.
func directResult(t *testing.T, srv *Server, spec loadgen.JobSpec) []byte {
	t.Helper()
	p, ok := frameworks.ByName(spec.Framework)
	if !ok {
		t.Fatalf("unknown framework %q", spec.Framework)
	}
	ep, ok := srv.Registry().Resolve(spec.Graph)
	if !ok {
		t.Fatalf("graph %q not registered", spec.Graph)
	}
	res, err := p.RunOn(memsim.NewMachine(srv.cfg.Machine), ep.Base, spec.App, spec.Threads, frameworks.DefaultParams(ep.Base))
	if err != nil {
		t.Fatalf("direct %+v: %v", spec, err)
	}
	data, err := analytics.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

// TestConcurrentServingByteIdentical is the conformance acceptance test:
// 64 concurrent kernel queries over shared graphs — a deterministic
// mixed-kernel, mixed-framework workload from the bench load generator —
// must return byte-identical Results to direct analytics execution, first
// against a cold cache and then again fully warm, while the scheduler
// honors its concurrency bound. Run under -race this also proves the
// sealed shared graphs are never written concurrently.
func TestConcurrentServingByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("64-job conformance run is slow")
	}
	const (
		workers = 8
		jobs    = 64
	)
	srv := newTestServer(t, workers, 2*jobs)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs, err := loadgen.Workload([]string{"web", "erdos", "kron"}, 42, jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != jobs {
		t.Fatalf("workload = %d specs, want %d", len(specs), jobs)
	}

	// Direct expected bytes per unique spec, computed without the server.
	expected := make(map[loadgen.JobSpec][]byte)
	for _, spec := range specs {
		if _, ok := expected[spec]; !ok {
			expected[spec] = directResult(t, srv, spec)
		}
	}
	t.Logf("%d jobs over %d unique (graph, app, framework) specs", jobs, len(expected))

	runBatch := func(phase string) (hits int) {
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			hitSeen int
		)
		for i, spec := range specs {
			wg.Add(1)
			go func(i int, spec loadgen.JobSpec) {
				defer wg.Done()
				req := JobRequest{Graph: spec.Graph, App: spec.App, Framework: spec.Framework, Threads: spec.Threads}
				resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s job %d (%+v): status %d: %s", phase, i, spec, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, expected[spec]) {
					t.Errorf("%s job %d (%+v): response bytes differ from direct execution", phase, i, spec)
				}
				if resp.Header.Get("X-Cache") == "hit" {
					mu.Lock()
					hitSeen++
					mu.Unlock()
				}
			}(i, spec)
		}
		wg.Wait()
		return hitSeen
	}

	coldHits := runBatch("cold")
	warmHits := runBatch("warm")
	if warmHits != jobs {
		t.Errorf("warm phase: %d/%d cache hits, want all (every result was cached cold)", warmHits, jobs)
	}
	t.Logf("cold hits (duplicate specs finishing early): %d; warm hits: %d", coldHits, warmHits)

	st := srv.Stats()
	if st.Scheduler.MaxRunning > workers {
		t.Errorf("scheduler exceeded its bound: max %d running with %d workers", st.Scheduler.MaxRunning, workers)
	}
	if st.Scheduler.MaxRunning < 2 {
		t.Errorf("no concurrency observed (max running = %d)", st.Scheduler.MaxRunning)
	}
	if st.Scheduler.Completed != 2*jobs {
		t.Errorf("completed = %d, want %d", st.Scheduler.Completed, 2*jobs)
	}
	if st.Cache.Hits < uint64(jobs) {
		t.Errorf("cache hits = %d, want >= %d (whole warm phase)", st.Cache.Hits, jobs)
	}
	if st.Cache.Misses == 0 || st.Cache.Entries != len(expected) {
		t.Errorf("cache stats %+v, want %d entries", st.Cache, len(expected))
	}
	// Coalescing + caching mean each unique spec ran its kernel exactly
	// once across both phases — duplicates either hit the cache or waited
	// on the in-flight execution.
	if st.KernelExecutions != uint64(len(expected)) {
		t.Errorf("kernel executions = %d, want exactly %d (one per unique spec)", st.KernelExecutions, len(expected))
	}
}

func TestHTTPGraphLifecycle(t *testing.T) {
	srv := New(Config{Machine: testMachine(), Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}

	// Load a Table 3 input by generator name.
	resp, body := postJSON(t, ts.URL+"/v1/graphs", loadGraphRequest{Input: "kron30"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load input: %d: %s", resp.StatusCode, body)
	}
	var info GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "kron30" || info.Nodes == 0 {
		t.Errorf("info = %+v", info)
	}

	// Load a serialized CSR file.
	path := filepath.Join(t.TempDir(), "tiny.csr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(f, gen.Cycle(64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if resp, body := postJSON(t, ts.URL+"/v1/graphs", loadGraphRequest{Name: "tiny", Path: path}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("load file: %d: %s", resp.StatusCode, body)
	}

	var list []GraphInfo
	getJSON(t, ts.URL+"/v1/graphs", &list)
	if len(list) != 2 || list[0].Name != "kron30" || list[1].Name != "tiny" {
		t.Errorf("list = %+v", list)
	}

	// Bad loads.
	for _, bad := range []loadGraphRequest{
		{},                                     // neither input nor path
		{Input: "kron30", Path: path},          // both
		{Input: "kron30"},                      // duplicate name
		{Input: "nope"},                        // unknown input
		{Input: "kron30", Scale: "gigantic"},   // bad scale
		{Path: filepath.Join(path, "nowhere")}, // file load without a name
	} {
		if resp, _ := postJSON(t, ts.URL+"/v1/graphs", bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("load %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// Evict drops the graph and its cached results.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/tiny", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Errorf("evict: %d", dresp.StatusCode)
	}
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("double evict: %d, want 404", dresp.StatusCode)
	}
}

func TestHTTPJobLifecycleAndTraceStreaming(t *testing.T) {
	srv := newTestServer(t, 2, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Synchronous submit returns the result and the job id.
	req := JobRequest{Graph: "web", App: "bfs", Framework: "Galois", Threads: 8}
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait submit: %d: %s", resp.StatusCode, body)
	}
	jobID := resp.Header.Get("X-Job-Id")
	if jobID == "" || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("headers: id=%q cache=%q", jobID, resp.Header.Get("X-Cache"))
	}
	res, err := analytics.UnmarshalResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "bfs" || len(res.Trace) == 0 {
		t.Fatalf("result app=%s trace=%d", res.App, len(res.Trace))
	}

	// Status and result retrieval for the finished job.
	var status JobStatus
	if r := getJSON(t, ts.URL+"/v1/jobs/"+jobID, &status); r.StatusCode != http.StatusOK || status.State != JobDone {
		t.Errorf("status = %d %+v", r.StatusCode, status)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if !bytes.Equal(stored, body) {
		t.Error("result endpoint bytes differ from wait-submit bytes")
	}

	// Trace endpoint returns the rounds as one JSON array.
	var rounds []engine.RoundStat
	if r := getJSON(t, ts.URL+"/v1/jobs/"+jobID+"/trace", &rounds); r.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", r.StatusCode)
	}
	if !reflect.DeepEqual(rounds, res.Trace) {
		t.Error("trace endpoint disagrees with the result's trace")
	}

	// Streaming endpoint emits the same rounds as NDJSON.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/trace/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	var streamed []engine.RoundStat
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var rs engine.RoundStat
		if err := json.Unmarshal(scanner.Bytes(), &rs); err != nil {
			t.Fatalf("stream line %d: %v", len(streamed), err)
		}
		streamed = append(streamed, rs)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, res.Trace) {
		t.Errorf("streamed %d rounds disagree with the result trace (%d rounds)", len(streamed), len(res.Trace))
	}

	// Async submit + job listing; explicit wait=0 must not block either.
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs?wait=0", JobRequest{Graph: "kron", App: "bfs", Threads: 4}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wait=0 submit: %d, want 202", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Graph: "kron", App: "cc", Threads: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d: %s", resp.StatusCode, body)
	}
	var accepted JobStatus
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	job, ok := srv.Job(accepted.ID)
	if !ok {
		t.Fatalf("job %s not tracked", accepted.ID)
	}
	<-job.Done()
	var all []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &all)
	if len(all) != 3 {
		t.Errorf("job list = %d entries, want 3", len(all))
	}

	// A cache hit surfaces on the second identical submit.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Errorf("second identical submit: X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	srv := newTestServer(t, 2, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		req     JobRequest
		wantMsg string
	}{
		{"unknown graph", JobRequest{Graph: "nope", App: "bfs"}, "not loaded"},
		{"unknown framework", JobRequest{Graph: "web", App: "bfs", Framework: "Ligra"}, "unknown framework"},
		{"unknown app", JobRequest{Graph: "web", App: "pagerankz"}, "unknown app"},
		{"capability gate", JobRequest{Graph: "web", App: "bc", Framework: "GraphIt"}, "does not implement"},
		{"source out of range", JobRequest{Graph: "web", App: "bfs", Params: &ParamOverrides{Source: ptr[graph.Node](1 << 30)}}, "out of range"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, tc.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", tc.name, eb.Error, tc.wantMsg)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	// Unknown job endpoints.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/result", "/v1/jobs/job-999999/trace"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

// TestHTTPBackpressureAndUnfinishedJobs swaps in a blocking scheduler to
// pin down the overload and not-finished paths deterministically: 429 when
// the queue is full, 409 for results of jobs still in flight.
func TestHTTPBackpressureAndUnfinishedJobs(t *testing.T) {
	srv := newTestServer(t, 2, 16)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.sched.Close()
	srv.sched = NewScheduler(1, 1, func(j *Job) ([]byte, bool, error) {
		started <- struct{}{}
		<-release
		return []byte("{}"), false, nil
	})
	defer func() {
		close(release)
		srv.sched.Close()
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := JobRequest{Graph: "web", App: "bfs"}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", resp.StatusCode, body)
	}
	var running JobStatus
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now blocked inside the job

	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third submit: %d, want 429: %s", resp.StatusCode, body)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/" + running.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Errorf("result of running job: %d, want 409", r.StatusCode)
	}
}

// TestEvictionInvalidatesCachedResults covers the registry/cache epoch
// interplay: after evicting and reloading a different graph under the same
// name, a repeated request must re-execute (and return the new graph's
// result), never the stale bytes.
func TestEvictionInvalidatesCachedResults(t *testing.T) {
	srv := New(Config{Machine: testMachine(), Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := srv.Registry().Add("g", "direct", gen.WebCrawl(800, 4, 40, 9)); err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Graph: "g", App: "bfs", Threads: 4}
	_, first := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)

	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if _, err := srv.Registry().Add("g", "direct", gen.ErdosRenyi(500, 3000, 77)); err != nil {
		t.Fatal(err)
	}

	resp, second := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("post-reload request hit the cache: X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if bytes.Equal(first, second) {
		t.Error("reloaded graph returned the evicted graph's bytes")
	}
}

func ptr[T any](v T) *T { return &v }
