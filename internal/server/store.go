package server

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pmemgraph/internal/graph"
)

// graphStore is one graph's durable state under the registry's data
// directory: dataDir/<name>/ holds
//
//	base-<k>.csrz   sealed snapshot subsuming the first k update batches
//	wal.log         WAL records for batches k+1, k+2, ... (graph.AppendLog)
//
// The crash-consistency protocol hangs on two facts. First, WAL records
// carry GLOBAL per-graph sequence numbers that are never renumbered, and
// the snapshot's filename records which sequences it subsumes — so replay
// is always "load the highest base-<k>, apply logged batches with seq > k"
// and a crash at ANY point between a snapshot commit and the log
// truncation that follows it merely leaves already-subsumed records in the
// log, which replay skips by sequence instead of applying twice. Second,
// every multi-byte commit is a single rename: snapshots and rewritten logs
// are written to a temp file and renamed into place, so a torn write leaves
// the previous base-<k> (and the log records it needs) untouched.
//
// A nil *graphStore is the in-memory registry's store: every durable step
// on it is a no-op, so the registry's transitions read the same with or
// without a data dir.
type graphStore struct {
	dir string
	// wal is the open append handle; appends are serialized by the
	// registry's write lock.
	wal walFile
	// walLen is the length of the log's acknowledged prefix: a failed
	// append is cut back to it, so nothing unacknowledged (torn or whole)
	// ever sits in front of a later acknowledged record. failed is set when
	// even that cut fails — the log's tail is then unknown and nothing more
	// may be acknowledged onto it until the log is rewritten.
	walLen int64
	failed error
	// baseSeq is k of the live base-<k>.csrz; nextSeq the sequence the
	// next appended batch gets.
	baseSeq uint64
	nextSeq uint64
}

// walFile is what the store needs of the open log: append, make durable,
// cut back, release. *os.File in production; the fault tests substitute one
// whose writes come up short or whose fsync fails.
type walFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

const walFileName = "wal.log"

func basePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("base-%d.csrz", seq))
}

// openWAL (re)opens the append handle on the log as it stands, which the
// caller knows to hold only acknowledged records.
func (st *graphStore) openWAL() error {
	st.Close()
	f, err := os.OpenFile(filepath.Join(st.dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			st.wal, st.walLen, st.failed = f, fi.Size(), nil
			return nil
		}
		f.Close()
	}
	st.failed = fmt.Errorf("server: opening WAL: %w", err)
	return st.failed
}

// createGraphStore initializes a fresh graph directory by committing g as
// the batch-zero snapshot with an empty log. A leftover directory from an
// evicted or half-created graph of the same name is removed first.
func createGraphStore(dataDir, name string, g *graph.Graph) (*graphStore, error) {
	if dataDir == "" {
		return nil, nil
	}
	dir := filepath.Join(dataDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("server: clearing graph dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating graph dir: %w", err)
	}
	st := &graphStore{dir: dir, baseSeq: 0, nextSeq: 1}
	tmp, err := st.writeSnapshot(g)
	if err == nil {
		err = st.CommitSnapshot(tmp, 0, nil)
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// writeSnapshot serializes g to a temp file in the store's directory and
// returns its path; the caller commits it with a rename (or removes it).
// Fsync before rename makes the rename a real commit point.
func (st *graphStore) writeSnapshot(g *graph.Graph) (string, error) {
	if st == nil {
		return "", nil
	}
	f, err := os.CreateTemp(st.dir, ".base-*.tmp")
	if err != nil {
		return "", fmt.Errorf("server: creating snapshot temp: %w", err)
	}
	if err := graph.WriteCSRZ(f, g); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("server: writing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("server: closing snapshot: %w", err)
	}
	return f.Name(), nil
}

// AppendBatch logs one update batch durably; called under the registry
// write lock, after the handle re-check and before the epoch swap, so the
// log order is exactly the epoch order and no unlogged epoch is ever
// visible. A short write or a failed fsync leaves bytes nobody was told
// about in the file — a torn record recovery would stop at, or a whole one
// it would apply — so the log is cut back to its acknowledged length before
// the error is returned, and if that fails too the store refuses further
// appends: a later acknowledged batch must never land behind garbage.
func (st *graphStore) AppendBatch(ups []graph.EdgeUpdate) error {
	if st == nil {
		return nil
	}
	if st.failed != nil {
		return st.failed
	}
	var rec bytes.Buffer
	if err := graph.AppendLog(&rec, st.nextSeq, ups); err != nil {
		return err
	}
	_, err := st.wal.Write(rec.Bytes())
	if err == nil {
		err = st.wal.Sync()
	}
	if err != nil {
		err = fmt.Errorf("server: logging batch %d: %w: %w", st.nextSeq, ErrStorage, err)
		if terr := st.wal.Truncate(st.walLen); terr != nil {
			st.failed = fmt.Errorf("%w; the log could not be cut back (%v) and takes no more appends", err, terr)
		}
		return err
	}
	st.walLen += int64(rec.Len())
	st.nextSeq++
	return nil
}

// rewriteLog replaces the log with exactly the given batches, numbered from
// first, and reopens the append handle on it: temp file, fsync, one rename,
// so a crash leaves the old log or the new one and never a mixture.
func (st *graphStore) rewriteLog(first uint64, batches [][]graph.EdgeUpdate) error {
	tmp, err := os.CreateTemp(st.dir, ".wal-*.tmp")
	if err != nil {
		return fmt.Errorf("server: creating WAL temp: %w", err)
	}
	for i, b := range batches {
		if err == nil {
			err = graph.AppendLog(tmp, first+uint64(i), b)
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(st.dir, walFileName))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: rewriting WAL: %w", err)
	}
	return st.openWAL()
}

// CommitSnapshot promotes tmp (from writeSnapshot) to the live base
// subsuming the first k batches, then rewrites the log to rest — the
// batches k+1.. the resident epoch holds beyond that base (none when no
// batch landed while the snapshot was rendered). Called under the registry
// write lock. A crash between the rename and the rewrite is benign: the log
// then still holds every record since the PREVIOUS base, and recovery
// skips the ones with seq <= k by sequence arithmetic and replays the rest.
func (st *graphStore) CommitSnapshot(tmp string, k uint64, rest [][]graph.EdgeUpdate) error {
	if st == nil {
		return nil
	}
	if k+uint64(len(rest))+1 != st.nextSeq {
		return fmt.Errorf("server: snapshot of %d batches + %d logged does not add up to the %d acknowledged", k, len(rest), st.nextSeq-1)
	}
	if err := os.Rename(tmp, basePath(st.dir, k)); err != nil {
		return fmt.Errorf("server: committing snapshot: %w", err)
	}
	if old := st.baseSeq; old != k {
		os.Remove(basePath(st.dir, old))
	}
	st.baseSeq = k
	return st.rewriteLog(k+1, rest)
}

// Close releases the WAL handle; appends are refused from then on.
func (st *graphStore) Close() {
	if st != nil && st.wal != nil {
		st.wal.Close()
		st.wal, st.failed = nil, fmt.Errorf("%w: %w", ErrStorage, os.ErrClosed)
	}
}

// Remove deletes the graph's directory (eviction).
func (st *graphStore) Remove() {
	if st != nil {
		st.Close()
		os.RemoveAll(st.dir)
	}
}

// openGraphStore recovers one graph directory: it loads the highest
// base-<k> snapshot, replays the logged batches with seq > k (skipping
// records a committed snapshot already subsumes, stopping at a torn or
// corrupt tail), rewrites the log to exactly the replayed records, and
// returns the sealed base plus the surviving batches in order. A directory
// with no committed snapshot yields (nil store) — there is nothing to
// serve from it.
func openGraphStore(dataDir, name string) (*graphStore, *graph.Graph, [][]graph.EdgeUpdate, error) {
	dir := filepath.Join(dataDir, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: reading graph dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, "base-") || !strings.HasSuffix(n, ".csrz") {
			continue
		}
		k, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(n, "base-"), ".csrz"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, k)
	}
	if len(seqs) == 0 {
		return nil, nil, nil, nil
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	baseSeq := seqs[len(seqs)-1]
	f, err := os.Open(basePath(dir, baseSeq))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: opening snapshot: %w", err)
	}
	g, err := graph.ReadCSRZ(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: reading snapshot: %w", err)
	}
	// A superseded snapshot survives a crash between a commit rename and
	// the old file's removal; finish the job.
	for _, k := range seqs[:len(seqs)-1] {
		os.Remove(basePath(dir, k))
	}

	var batches [][]graph.EdgeUpdate
	first := uint64(0)
	if wf, err := os.Open(filepath.Join(dir, walFileName)); err == nil {
		first, batches, err = graph.ReadLogSeq(wf)
		wf.Close()
		if err != nil {
			return nil, nil, nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, nil, fmt.Errorf("server: opening WAL: %w", err)
	}
	// Keep only batches the snapshot does not subsume. A log that starts
	// BEYOND baseSeq+1 has a gap against the snapshot — nothing in it can
	// be trusted to follow the snapshot's state, so it is dropped whole.
	switch {
	case len(batches) == 0:
	case first > baseSeq+1:
		batches = nil
	case first+uint64(len(batches)) <= baseSeq+1:
		batches = nil
	default:
		batches = batches[baseSeq+1-first:]
	}

	// Rewrite the log to exactly the surviving records (dropping torn
	// tails, subsumed records and untrusted suffixes) so future appends
	// land on a clean, replayable stream.
	st := &graphStore{dir: dir, baseSeq: baseSeq, nextSeq: baseSeq + 1 + uint64(len(batches))}
	if err := st.rewriteLog(baseSeq+1, batches); err != nil {
		return nil, nil, nil, err
	}
	return st, g, batches, nil
}
