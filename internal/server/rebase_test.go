package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// directCC runs Galois cc outside the server on an explicit (sealed base,
// overlay) split and returns the canonical result bytes; ov == nil runs the
// base as a plain CSR.
func directCC(t *testing.T, base *graph.Graph, ov *graph.Overlay) []byte {
	t.Helper()
	p, _ := frameworks.ByName("Galois")
	m := memsim.NewMachine(testMachine())
	opts := p.Options("cc", 8)
	var res *analytics.Result
	var err error
	if ov != nil {
		res, err = p.RunOverlayOnOpts(m, ov, "cc", opts, frameworks.DefaultParamsOverlay(ov))
	} else {
		res, err = p.RunOnOpts(m, base, "cc", opts, frameworks.DefaultParams(base))
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := analytics.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var ccJob = JobRequest{Graph: "g", App: "cc", Framework: "Galois", Threads: 8}

// serveCC submits ccJob and returns the served bytes and the X-Cache header.
func serveCC(t *testing.T, ts *httptest.Server) ([]byte, string) {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", ccJob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: %d %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache")
}

// foldOnto applies batches to a fresh overlay over base.
func foldOnto(t *testing.T, base *graph.Graph, batches ...[]graph.EdgeUpdate) *graph.Overlay {
	t.Helper()
	ov := graph.NewOverlay(base)
	for i, b := range batches {
		var err error
		if ov, _, err = ov.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	return ov
}

// TestCheckpointBesideWritesConverges is the compaction-under-load
// contract: Checkpoint called over and over beside a writer applying
// batches back to back never conflicts and never makes the writer conflict
// — each pass installs its base with the batches that landed meanwhile
// rebased onto it — the overlay ends up bounded by what arrived during one
// pass, the durable split (base-<k> plus a log of seq > k) is what is
// resident, and a restart reproduces exactly that split and content.
func TestCheckpointBesideWritesConverges(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistryAt(dir, -1)
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(2000, 20000, 13)); err != nil {
		t.Fatal(err)
	}
	first, _ := reg.Resolve("g")
	const batches, per = 200, 8
	stream, err := gen.UpdateStream(first.Base, batches, per, 0xC0DE, true)
	if err != nil {
		t.Fatal(err)
	}
	written := make(chan error, 1)
	go func() {
		for i, b := range stream {
			if _, err := reg.ApplyUpdates("g", b); err != nil {
				written <- fmt.Errorf("writer, batch %d: %w", i+1, err)
				return
			}
		}
		written <- nil
	}()
	rebased := 0
	for running := true; running; {
		select {
		case err := <-written:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		if !running {
			break
		}
		info, err := reg.Checkpoint("g")
		if err != nil {
			t.Fatalf("checkpoint beside writes: %v", err)
		}
		if info.Form == formOverlay {
			rebased++
		}
	}
	if rebased == 0 {
		t.Fatalf("no checkpoint overlapped any of %d batches; the rebase path never ran", batches)
	}

	cur, _ := reg.Resolve("g")
	info := cur.Info
	if info.Updates != batches || cur.batches() != batches {
		t.Fatalf("resident epoch holds %d batches (%d updates), writer acknowledged %d", cur.batches(), info.Updates, batches)
	}
	if info.BaseBatches == 0 || info.OverlayEntries > info.Edges/DefaultCompactDiv {
		t.Fatalf("compaction did not converge: %+v", info)
	}
	if _, err := os.Stat(basePath(filepath.Join(dir, "g"), info.BaseBatches)); err != nil {
		t.Fatalf("resident base holds %d batches but its snapshot is missing: %v", info.BaseBatches, err)
	}
	wantLog := int64(len(cur.tail) * (16 + 13*per + 4))
	if st, err := os.Stat(filepath.Join(dir, "g", walFileName)); err != nil || st.Size() != wantLog {
		t.Fatalf("log is %d bytes (%v), want exactly the %d-batch tail = %d", st.Size(), err, len(cur.tail), wantLog)
	}
	want := foldOnto(t, first.Base, stream...).Materialize()
	got, _, _ := snapshot(reg, "g")
	if !reflect.DeepEqual(got.OutOffsets, want.OutOffsets) || !reflect.DeepEqual(got.OutEdges, want.OutEdges) ||
		!reflect.DeepEqual(got.OutWeights, want.OutWeights) {
		t.Fatal("resident graph differs from the stream applied in order")
	}

	reg2 := NewRegistryAt(dir, -1)
	infos, err := reg2.Recover()
	if err != nil || len(infos) != 1 {
		t.Fatalf("recovery: %+v, %v", infos, err)
	}
	rec := infos[0]
	if rec.BaseBatches != info.BaseBatches || rec.Updates != len(cur.tail) || rec.Form != info.Form ||
		rec.OverlayEntries != info.OverlayEntries || rec.Edges != info.Edges {
		t.Fatalf("recovered split %+v differs from the resident one %+v", rec, info)
	}
	again, _, _ := snapshot(reg2, "g")
	if !reflect.DeepEqual(again, got) {
		t.Fatal("recovered graph differs from the resident graph")
	}
}

// TestRebasedSplitServesDirectRunBytesAcrossRestart pins what a checkpoint
// that raced a batch leaves behind, deterministically (the checkpoint starts
// from a handle resolved before the batch): the epoch number is the
// batch's, the resident split is (snapshot of the first k batches, overlay
// of the rest), disk holds base-<k>.csrz plus a log of exactly the rest, the
// served bytes are a direct run's on that split, and a restart serves them
// again.
func TestRebasedSplitServesDirectRunBytesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		return New(Config{Machine: testMachine(), Workers: 2, DataDir: dir, CompactDiv: -1})
	}
	srv := mk()
	reg := srv.Registry()
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(600, 3600, 31)); err != nil {
		t.Fatal(err)
	}
	first, _ := reg.Resolve("g")
	stream, err := gen.UpdateStream(first.Base, 4, 12, 0x5917, true)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(b []graph.EdgeUpdate) GraphInfo {
		t.Helper()
		info, err := reg.ApplyUpdates("g", b)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	apply(stream[0])
	apply(stream[1])
	resolved, _ := reg.Resolve("g") // the compactor resolves here ...
	landed := apply(stream[2])      // ... a batch lands while it materializes ...
	info, err := reg.checkpointFrom(resolved)
	if err != nil {
		t.Fatalf("checkpoint raced by a batch: %v", err) // ... and it installs anyway
	}
	if info.Epoch != landed.Epoch || info.Form != formOverlay || info.BaseBatches != 2 || info.Updates != 3 {
		t.Fatalf("rebased install %+v, want epoch %d as overlay over a base holding 2 batches", info, landed.Epoch)
	}
	gdir := filepath.Join(dir, "g")
	if _, err := os.Stat(basePath(gdir, 2)); err != nil {
		t.Fatalf("base-2.csrz missing: %v", err)
	}
	if _, err := os.Stat(basePath(gdir, 0)); !os.IsNotExist(err) {
		t.Fatalf("superseded base-0.csrz still present (%v)", err)
	}
	f, err := os.Open(filepath.Join(gdir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	seq, logged, err := graph.ReadLogSeq(f)
	f.Close()
	if err != nil || seq != 3 || len(logged) != 1 || !reflect.DeepEqual(logged[0], stream[2]) {
		t.Fatalf("log holds %d batches from seq %d (%v), want exactly batch 3", len(logged), seq, err)
	}

	// A later batch goes on top of the rebased split, in memory and on disk.
	apply(stream[3])
	prefix := foldOnto(t, first.Base, stream[0], stream[1]).Materialize()
	seal(prefix)
	want := directCC(t, prefix, foldOnto(t, prefix, stream[2], stream[3]))

	ts := httptest.NewServer(srv.Handler())
	got, _ := serveCC(t, ts)
	ts.Close()
	srv.Close()
	if !bytes.Equal(got, want) {
		t.Fatal("served bytes differ from a direct run on (snapshot of 2 batches, overlay of the 2 logged since)")
	}

	srv2 := mk()
	defer srv2.Close()
	infos, err := srv2.Recover()
	if err != nil || len(infos) != 1 || infos[0].BaseBatches != 2 || infos[0].Updates != 2 || infos[0].Form != formOverlay {
		t.Fatalf("recovered %+v (%v), want base-2 plus 2 replayed batches", infos, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if again, _ := serveCC(t, ts2); !bytes.Equal(again, want) {
		t.Fatal("restart serves different bytes than before the kill")
	}
}

// TestBatchStraddlingCheckpointLandsOnTheNewBase: a batch that resolved its
// handle before a checkpoint's swap and commits after it must land on the
// checkpointed base. The checkpoint kept the epoch NUMBER, so a publish that
// compared numbers would accept the stale fold and put the pre-checkpoint
// overlay back over the old base while disk holds base-<k> and a truncated
// log: resident and recovered splits would then charge differently. No
// conflict is reported either — the content the batch validated against is
// unchanged.
func TestBatchStraddlingCheckpointLandsOnTheNewBase(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistryAt(dir, -1)
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 43)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.ApplyUpdates("g", regBatch(t, reg, "g", 8, uint64(0xB0+i), true)); err != nil {
			t.Fatal(err)
		}
	}
	batch := regBatch(t, reg, "g", 8, 0xB2, true)
	resolved, _ := reg.Resolve("g") // the batch resolves and folds here ...
	if _, err := reg.Checkpoint("g"); err != nil {
		t.Fatal(err) // ... the compactor swaps in base-2 at the same epoch ...
	}
	compacted, _ := reg.Resolve("g")
	info, err := reg.applyFrom(resolved, batch) // ... and the batch commits
	if err != nil {
		t.Fatalf("batch straddling a checkpoint: %v", err)
	}
	cur, _ := reg.Resolve("g")
	if cur.Base != compacted.Base || info.BaseBatches != 2 || len(cur.tail) != 1 || info.Updates != 3 || info.OverlayEntries != int64(len(batch)) {
		t.Fatalf("batch landed on %+v, want an overlay of it alone over the checkpointed base", info)
	}
	reg2 := NewRegistryAt(dir, -1)
	infos, err := reg2.Recover()
	if err != nil || len(infos) != 1 || infos[0].BaseBatches != 2 || infos[0].Updates != 1 || infos[0].OverlayEntries != info.OverlayEntries {
		t.Fatalf("recovered %+v (%v), want the resident split %+v", infos, err, info)
	}
	want, _, _ := snapshot(reg, "g")
	if got, _, _ := snapshot(reg2, "g"); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered graph differs from the resident graph")
	}
}

// TestTwoSplitsOfOneEpochDoNotShareCacheEntry: a rebase keeps the epoch
// number and the overlay form but changes the split, and with it the
// charging in the result bytes. The entry cached under the old split must
// not answer for the new one.
func TestTwoSplitsOfOneEpochDoNotShareCacheEntry(t *testing.T) {
	srv := New(Config{Machine: testMachine(), Workers: 2, CompactDiv: -1})
	defer srv.Close()
	reg := srv.Registry()
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(600, 3600, 37)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, err := reg.ApplyUpdates("g", nextBatch(t, srv, "g", 24, 1)); err != nil {
		t.Fatal(err)
	}
	resolved, _ := reg.Resolve("g")
	if _, err := reg.ApplyUpdates("g", nextBatch(t, srv, "g", 24, 2)); err != nil {
		t.Fatal(err)
	}
	wide, _ := reg.Resolve("g") // base_0 + 2 batches
	bytesWide, _ := serveCC(t, ts)
	if _, cache := serveCC(t, ts); cache != "hit" {
		t.Fatal("overlay-form result did not cache")
	}
	if _, err := reg.checkpointFrom(resolved); err != nil {
		t.Fatal(err)
	}
	narrow, _ := reg.Resolve("g") // base_1 + 1 batch, same epoch
	if narrow.Info.Epoch != wide.Info.Epoch || narrow.Info.Form != wide.Info.Form || narrow.Info.BaseBatches != 1 {
		t.Fatalf("rebase left %+v, want epoch %d re-split over a base holding 1 batch", narrow.Info, wide.Info.Epoch)
	}
	bytesNarrow, cache := serveCC(t, ts)
	if cache != "miss" {
		t.Fatalf("first job on the new split was a cache %q: it aliased the old split's entry", cache)
	}
	if !bytes.Equal(bytesWide, directCC(t, wide.Base, wide.Overlay)) || !bytes.Equal(bytesNarrow, directCC(t, narrow.Base, narrow.Overlay)) {
		t.Fatal("served bytes differ from a direct run on the split that was resident")
	}
	a, err := analytics.UnmarshalResult(bytesWide)
	if err != nil {
		t.Fatal(err)
	}
	b, err := analytics.UnmarshalResult(bytesNarrow)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatal("re-splitting an epoch changed kernel outputs")
	}
}

// faultyWAL wraps the store's log handle and fails on demand the way a full
// or dying disk does.
type faultyWAL struct {
	walFile
	shortWrite, syncErr, truncateErr bool
}

func (f *faultyWAL) Write(p []byte) (int, error) {
	if f.shortWrite {
		n, _ := f.walFile.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.walFile.Write(p)
}

func (f *faultyWAL) Sync() error {
	if f.syncErr {
		return syscall.EIO
	}
	return f.walFile.Sync()
}

func (f *faultyWAL) Truncate(size int64) error {
	if f.truncateErr {
		return syscall.EIO
	}
	return f.walFile.Truncate(size)
}

// TestWALAppendFaultsNeverPoisonLaterBatches injects the two append faults —
// a short write (ENOSPC) that leaves a torn record, and a failed fsync that
// leaves a complete record nobody was told about — and requires that each
// is answered 500 with the epoch unchanged, that batches acknowledged
// AFTERWARDS survive a restart (the parent appended them behind the
// leftover bytes, where recovery's CRC and sequence checks drop them), and
// that a log which cannot even be cut back refuses further appends.
func TestWALAppendFaultsNeverPoisonLaterBatches(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Server {
		return New(Config{Machine: testMachine(), Workers: 2, DataDir: dir, CompactDiv: -1})
	}
	srv := mk()
	defer srv.Close()
	reg := srv.Registry()
	if _, err := reg.Add("g", "direct", gen.ErdosRenyi(400, 2400, 41)); err != nil {
		t.Fatal(err)
	}
	ep, _ := reg.Resolve("g")
	wal := &faultyWAL{walFile: ep.store.wal}
	ep.store.wal = wal
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	acked := 0
	post := func(seed uint64, wantCode int) {
		t.Helper()
		before := currentInfo(reg, "g")
		resp, body := postJSON(t, ts.URL+"/v1/graphs/g/updates", updateBody(nextBatch(t, srv, "g", 8, seed)))
		if resp.StatusCode != wantCode {
			t.Fatalf("batch %#x: %d %s, want %d", seed, resp.StatusCode, body, wantCode)
		}
		if wantCode == http.StatusOK {
			acked++
		} else if after := currentInfo(reg, "g"); after != before {
			t.Fatalf("failed append changed the resident epoch: %+v -> %+v", before, after)
		}
	}
	post(0xA1, http.StatusOK)
	wal.shortWrite = true
	post(0xA2, http.StatusInternalServerError)
	wal.shortWrite = false
	post(0xA3, http.StatusOK)
	wal.syncErr = true
	post(0xA4, http.StatusInternalServerError)
	wal.syncErr = false
	post(0xA5, http.StatusOK)
	want, wantInfo, _ := snapshot(reg, "g")

	// Recovery rewrites the log it opens, so each probe recovers a copy of
	// the data dir and leaves the live server's files alone.
	recovered := func() (*graph.Graph, GraphInfo) {
		t.Helper()
		probe := t.TempDir()
		if err := os.CopyFS(probe, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		reg2 := NewRegistryAt(probe, -1)
		infos, err := reg2.Recover()
		if err != nil || len(infos) != 1 {
			t.Fatalf("recovery: %+v, %v", infos, err)
		}
		g, _, _ := snapshot(reg2, "g")
		ep2, _ := reg2.Resolve("g")
		ep2.store.Close()
		return g, infos[0]
	}
	if got, info := recovered(); info.Updates != acked || info.Edges != wantInfo.Edges || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d batches (%d edges), want exactly the %d acknowledged (%d edges) and their graph",
			info.Updates, info.Edges, acked, wantInfo.Edges)
	}

	// A fault that cannot be cut back: nothing more is acknowledged onto the
	// log, even once the device behaves again.
	wal.shortWrite, wal.truncateErr = true, true
	post(0xA6, http.StatusInternalServerError)
	wal.shortWrite, wal.truncateErr = false, false
	post(0xA7, http.StatusInternalServerError)
	if _, err := reg.ApplyUpdates("g", nextBatch(t, srv, "g", 8, 0xA8)); !errors.Is(err, ErrStorage) {
		t.Fatalf("append onto a log with an unknown tail: %v, want ErrStorage", err)
	}
	if got, info := recovered(); info.Updates != acked || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d batches after the uncut fault, want the %d acknowledged", info.Updates, acked)
	}
}
