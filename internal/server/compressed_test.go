package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// TestServingCompressedBackendByteIdentical is the compressed-backend
// serving conformance: concurrent jobs selecting the compressed CSR
// backend over shared sealed graphs must return byte-identical results to
// direct RunOnBackend executions, raw and compressed jobs for the same
// spec must occupy distinct cache entries (the key incorporates the
// backend), and the kernel *outputs* of the two backends must agree.
// Run under -race this also proves the cached compressed encodings are
// shared across concurrent jobs without mutation.
func TestServingCompressedBackendByteIdentical(t *testing.T) {
	srv := newTestServer(t, 4, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []JobRequest{
		{Graph: "web", App: "bfs", Framework: "Galois", Threads: 8},
		{Graph: "erdos", App: "pr", Framework: "GBBS", Threads: 8},
		{Graph: "kron", App: "sssp", Framework: "Galois", Threads: 8},
		{Graph: "web", App: "cc", Framework: "GAP", Threads: 8},
	}

	// direct runs on worker goroutines too, so it must not t.Fatal (FailNow
	// only exits the calling goroutine); it reports and returns nil instead.
	direct := func(req JobRequest, backend core.Backend) []byte {
		p, _ := frameworks.ByName(req.Framework)
		ep, ok := srv.Registry().Resolve(req.Graph)
		if !ok {
			t.Errorf("graph %q not registered", req.Graph)
			return nil
		}
		res, err := p.RunOnBackend(memsim.NewMachine(srv.cfg.Machine), ep.Base, req.App, req.Threads, ep.Params, backend)
		if err != nil {
			t.Errorf("direct %+v: %v", req, err)
			return nil
		}
		data, err := analytics.MarshalResult(res)
		if err != nil {
			t.Error(err)
			return nil
		}
		return data
	}

	var wg sync.WaitGroup
	for _, spec := range specs {
		for _, backend := range []string{"raw", "compressed"} {
			wg.Add(1)
			go func(req JobRequest, backend string) {
				defer wg.Done()
				req.Backend = backend
				b, err := core.ParseBackend(backend)
				if err != nil {
					t.Error(err)
					return
				}
				want := direct(req, b)
				if want == nil {
					return
				}
				resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s %+v: status %d: %s", backend, req, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, want) {
					t.Errorf("%s %+v: served bytes differ from direct execution", backend, req)
				}
			}(spec, backend)
		}
	}
	wg.Wait()

	st := srv.Stats()
	// Raw and compressed must never alias: one execution and one cache
	// entry per (spec, backend) pair.
	if want := uint64(2 * len(specs)); st.KernelExecutions != want {
		t.Errorf("kernel executions = %d, want %d (backends must not share cache entries)", st.KernelExecutions, want)
	}
	if want := 2 * len(specs); st.Cache.Entries != want {
		t.Errorf("cache entries = %d, want %d", st.Cache.Entries, want)
	}

	// Same spec, both backends: identical kernel outputs (the charging
	// differs, the answers must not).
	for _, spec := range specs {
		rawBytes, zBytes := direct(spec, core.BackendRaw), direct(spec, core.BackendCompressed)
		if rawBytes == nil || zBytes == nil {
			t.Fatalf("%+v: direct execution failed", spec)
		}
		rawRes, err := analytics.UnmarshalResult(rawBytes)
		if err != nil {
			t.Fatal(err)
		}
		zRes, err := analytics.UnmarshalResult(zBytes)
		if err != nil {
			t.Fatal(err)
		}
		if rawRes.Rounds != zRes.Rounds ||
			!bytes.Equal(uint32Bytes(rawRes.Dist), uint32Bytes(zRes.Dist)) ||
			!bytes.Equal(uint32Bytes(rawRes.Labels), uint32Bytes(zRes.Labels)) ||
			len(rawRes.Rank) != len(zRes.Rank) {
			t.Errorf("%+v: kernel outputs differ between backends", spec)
		}
		for i := range rawRes.Rank {
			if rawRes.Rank[i] != zRes.Rank[i] {
				t.Errorf("%+v: rank[%d] differs between backends", spec, i)
				break
			}
		}
	}
}

func uint32Bytes(xs []uint32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// TestServingRejectsUnknownBackend: validation must 400 an unknown
// backend name before the job is queued.
func TestServingRejectsUnknownBackend(t *testing.T) {
	srv := newTestServer(t, 1, 4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Graph: "web", App: "bfs", Backend: "zstd"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for unknown backend: %s", resp.StatusCode, body)
	}
}

// TestRegistryLoadCSRZFile: the registry must load .csrz files through
// the hardened compressed reader, seal them like any other graph, and
// serve both backends from the result.
func TestRegistryLoadCSRZFile(t *testing.T) {
	g := gen.WebCrawl(800, 5, 40, 31)
	dir := t.TempDir()
	path := filepath.Join(dir, "web.csrz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSRZ(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := NewRegistry()
	info, err := reg.LoadCSRFile("webz", path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("loaded shape %d/%d, want %d/%d", info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
	}
	ep, ok := reg.Resolve("webz")
	if !ok {
		t.Fatal("graph not resident after load")
	}
	loaded := ep.Base
	if !loaded.HasWeights() || !loaded.HasIn() {
		t.Fatal("csrz-loaded graph not sealed (weights/transpose missing)")
	}
	// Sealing must have re-encoded with weights so compressed-backend
	// sssp sees them in the blocks.
	if !loaded.CompressOut().Weighted() {
		t.Fatal("sealed graph's compressed form lacks interleaved weights")
	}

	// A corrupt .csrz must be rejected by the same load path.
	bad := filepath.Join(dir, "bad.csrz")
	if err := os.WriteFile(bad, []byte("PMGRCSZ1 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadCSRFile("badz", bad); err == nil {
		t.Fatal("corrupt csrz accepted")
	}
}
