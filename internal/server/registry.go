package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"

	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
)

// graphNameRE restricts registry names so they can be embedded verbatim in
// cache keys (which use '|' separators) and URL paths.
var graphNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// GraphInfo describes one resident graph.
type GraphInfo struct {
	Name string `json:"name"`
	// Source records provenance: "gen:<input>@<scale>", "file:<path>" or
	// "direct" for graphs handed to Add in-process.
	Source string `json:"source"`
	Nodes  int    `json:"nodes"`
	Edges  int64  `json:"edges"`
	// CSRBytes is the resident CSR footprint (both directions + weights,
	// since registry graphs are sealed).
	CSRBytes int64 `json:"csr_bytes"`
	// Epoch increments on every load and on every applied update batch,
	// so cache keys from an evicted or pre-update graph can never satisfy
	// a lookup against its replacement even if the same name is reused.
	Epoch uint64 `json:"epoch"`
	// Updates counts the update batches applied since the graph was
	// loaded.
	Updates int `json:"updates,omitempty"`
	// Form is the epoch's resident adjacency form: "csr" (a sealed CSR
	// graph) or "overlay" (a delta overlay over the last sealed base).
	// Checkpointing/compaction flips overlay -> csr WITHOUT changing the
	// epoch — outputs are byte-identical across forms, only the charging
	// differs, which is why cache keys carry the form separately.
	Form string `json:"form"`
	// OverlayEntries counts the overlay's delta entries (overlay form
	// only); compaction triggers when it outgrows Edges/compactDiv.
	OverlayEntries int64 `json:"overlay_entries,omitempty"`
	// BaseBatches counts the update batches already merged into the sealed
	// base (k of the durable base-<k>.csrz); the epoch is that base plus
	// the batches applied since. A compaction under sustained writes moves
	// batches from the overlay into the base without changing the epoch, so
	// one epoch can be resident under two splits — same outputs, different
	// charging — and overlay-form cache keys carry this count.
	BaseBatches uint64 `json:"base_batches,omitempty"`
}

// Adjacency forms a resident epoch can be served from.
const (
	formCSR     = "csr"
	formOverlay = "overlay"
)

// Registry holds the graphs resident in the serving process. Graphs are
// sealed on load — transpose and edge weights fully materialized — so the
// many concurrent runtimes built over one graph only ever read it; none of
// the lazy mutation paths (core.New's BuildIn, Plan.Run's weight generation)
// can fire mid-flight.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*Epoch
	epoch  uint64
	// dataDir, when set, roots the durable state: each graph persists a
	// sealed base-<k>.csrz snapshot plus a WAL of the batches applied
	// since (see store.go). Empty = purely in-memory serving.
	dataDir string
	// compactDiv sets the background-compaction threshold: an overlay
	// epoch whose delta exceeds Edges/compactDiv is merged into a fresh
	// CSR snapshot off the update path. <= 0 disables auto-compaction.
	compactDiv int64
	// compacting guards one background compactor per graph.
	compacting map[string]bool
	wg         sync.WaitGroup
}

// Epoch is one immutable resident state of a graph: everything a job reads
// about the graph it runs on. The registry publishes exactly one Epoch per
// name and swaps the whole handle on every update batch, checkpoint, reload
// or recovery; nothing reachable from a published handle is written again
// (the partition cache fills lazily behind its own lock). A job therefore
// resolves once and reads adjacency, parameters, transition and partition
// off that one handle — no second lookup can observe a different epoch.
// Prior epochs are pinned only by the in-flight jobs holding them; once
// those return the garbage collector reclaims them.
type Epoch struct {
	Info GraphInfo
	// Base is the sealed base CSR. For csr-form epochs it IS the epoch; for
	// overlay form it is the base Overlay overlays (Overlay.Base()).
	Base *graph.Graph
	// Overlay is the delta-overlay epoch, non-nil exactly when Info.Form is
	// "overlay".
	Overlay *graph.Overlay
	// Params are the deterministic per-graph kernel defaults
	// (frameworks.DefaultParams), computed once per epoch: the source
	// lookup is an O(V) degree scan that cache-hit-heavy serving must not
	// repeat per request.
	Params frameworks.Params
	// tail holds the update batches applied since Base, oldest first:
	// exactly the records wal.log holds beyond base-<Info.BaseBatches>.csrz.
	// The resident state is therefore the durable state, Overlay is always
	// fold(Base, tail), and a compaction can rebase the batches that landed
	// while it materialized instead of starting over. Never appended to in
	// place (handles are immutable and share prefixes by copy).
	tail [][]graph.EdgeUpdate
	// loaded is the epoch number this graph's load (Add or recovery) was
	// given; every handle folded from that load carries it. Two handles
	// with equal loaded are states of ONE linear batch sequence, which is
	// what lets a checkpoint tell "batches landed since" from "evicted and
	// reloaded".
	loaded uint64
	// delta is the update batch that produced this epoch and prevEpoch the
	// epoch it was applied to, i.e. delta describes exactly the prevEpoch ->
	// Info.Epoch transition. delta is nil (and prevEpoch meaningless) when
	// the epoch came from a load; read them through TransitionFrom.
	prevEpoch uint64
	delta     *graph.Delta
	// store is the graph's durable state (nil without a data dir, and a nil
	// store's methods are no-ops); it is carried across epoch swaps and
	// removed on eviction.
	store *graphStore
	// parts caches the epoch's partitioned forms by shard count, built on
	// first use (partitioning is O(V) but the per-shard ghost tables are
	// not free, and sharded serving is cache-hit-heavy). The cache lives
	// on the handle, so an update batch or checkpoint — which swaps the
	// handle — naturally drops stale partitions.
	partMu sync.Mutex
	parts  map[int]*graph.Partition
}

// newEpoch is the one place a resident entry is assembled: everything
// derivable from the adjacency (g alone for csr form, ov over g for overlay
// form) is derived here, outside the registry lock — DefaultParams is an
// O(V) degree scan. What only the lineage knows (update count, tail,
// transition, durable store) is carried over by fold or filled in by the
// caller; the epoch number is given by publish, under the lock.
func newEpoch(name, source string, g *graph.Graph, ov *graph.Overlay) *Epoch {
	ep := &Epoch{
		Info:    GraphInfo{Name: name, Source: source, Nodes: g.NumNodes(), Edges: g.NumEdges(), CSRBytes: g.CSRBytes(), Form: formCSR},
		Base:    g,
		Overlay: ov,
	}
	if ov == nil {
		ep.Params = frameworks.DefaultParams(g)
		return ep
	}
	// The overlay's footprint is the shared sealed base plus the two delta
	// sides at 8 bytes per entry.
	ep.Info.Edges, ep.Info.CSRBytes = ov.NumEdges(), g.CSRBytes()+ov.Entries()*16
	ep.Info.Form, ep.Info.OverlayEntries = formOverlay, ov.Entries()
	ep.Params = frameworks.DefaultParamsOverlay(ov)
	return ep
}

// batches returns how many update batches of its lineage the handle holds:
// those merged into the base plus the tail.
func (e *Epoch) batches() uint64 { return e.Info.BaseBatches + uint64(len(e.tail)) }

// fold returns the handle reached by applying batches, in order, to the
// state e holds: the overlay over e.Base takes one linear merge per batch
// (graph.Overlay.Apply) and the tail grows by the batches themselves. Every
// change of an epoch's content is this one function — an update folds one
// batch onto the resident handle, recovery folds the logged tail onto the
// loaded snapshot, a checkpoint folds the batches that landed meanwhile
// onto the base it materialized — and it runs outside the registry lock;
// publish numbers and installs the result. Folding nothing returns e.
func (e *Epoch) fold(batches [][]graph.EdgeUpdate) (*Epoch, error) {
	if len(batches) == 0 {
		return e, nil
	}
	ov := e.Overlay
	if ov == nil {
		ov = graph.NewOverlay(e.Base)
	}
	var delta graph.Delta
	for _, b := range batches {
		var err error
		if ov, delta, err = ov.Apply(b); err != nil {
			return nil, err
		}
	}
	next := newEpoch(e.Info.Name, e.Info.Source, e.Base, ov)
	next.Info.BaseBatches, next.Info.Updates = e.Info.BaseBatches, e.Info.Updates+len(batches)
	next.tail = append(e.tail[:len(e.tail):len(e.tail)], batches...)
	next.loaded, next.store = e.loaded, e.store
	if len(batches) == 1 {
		next.prevEpoch, next.delta = e.Info.Epoch, &delta
	}
	return next, nil
}

// TransitionFrom returns the update batch that turned epoch from into this
// one, or nil when this epoch is not exactly one batch ahead of from (it
// came from a load, or batches intervened). Incremental jobs use it to
// decide whether a retained seed is exactly one batch old.
func (e *Epoch) TransitionFrom(from uint64) *graph.Delta {
	if e.delta == nil || e.prevEpoch != from {
		return nil
	}
	return e.delta
}

// Partition returns Base partitioned into the given shard count, building
// and retaining it on first use. Shard-local graphs alias the sealed CSR
// arrays, which an overlay epoch does not have in merged form, so only
// csr-form epochs are meaningfully partitioned — job validation refuses
// shards on an overlay-form handle before it gets here.
func (e *Epoch) Partition(shards int) (*graph.Partition, error) {
	e.partMu.Lock()
	defer e.partMu.Unlock()
	if p, ok := e.parts[shards]; ok {
		return p, nil
	}
	p, err := graph.NewPartition(e.Base, shards)
	if err != nil {
		return nil, fmt.Errorf("server: partitioning %q: %w", e.Info.Name, err)
	}
	if e.parts == nil {
		e.parts = make(map[int]*graph.Partition)
	}
	e.parts[shards] = p
	return p, nil
}

// DefaultCompactDiv is the compaction threshold divisor when the config
// leaves it 0: an overlay is merged once its delta exceeds |E|/20.
const DefaultCompactDiv = 20

// NewRegistry returns an empty, in-memory registry with default
// compaction.
func NewRegistry() *Registry {
	return NewRegistryAt("", 0)
}

// NewRegistryAt returns a registry persisting under dataDir ("" for
// in-memory) with the given compaction divisor (0 = DefaultCompactDiv,
// negative = auto-compaction off). Call Recover to replay existing state.
func NewRegistryAt(dataDir string, compactDiv int64) *Registry {
	if compactDiv == 0 {
		compactDiv = DefaultCompactDiv
	}
	return &Registry{
		graphs:     make(map[string]*Epoch),
		dataDir:    dataDir,
		compactDiv: compactDiv,
		compacting: make(map[string]bool),
	}
}

// seal materializes every lazily-built projection of g (edge weights with
// the frameworks defaults, the transpose so in-weights exist too, and both
// directions' compressed adjacency forms for jobs selecting the compressed
// backend). After sealing, HasWeights and HasIn both hold and the
// compressed encodings are cached, making every subsequent core.New /
// Plan.Run over the graph read-only. Order matters: weights invalidate cached
// compressed forms, so compression runs last.
func seal(g *graph.Graph) {
	if !g.HasWeights() {
		g.AddRandomWeights(frameworks.DefaultWeightMax, frameworks.DefaultWeightSeed)
	}
	g.BuildIn()
	g.CompressOut()
	g.CompressIn()
}

// Add registers g under name, sealing it first. It fails on invalid or
// duplicate names; the duplicate check runs before sealing so a rejected
// Add neither burns the O(E) materialization nor mutates the caller's
// graph (two racing Adds of one name may both seal, but only one
// registers).
func (r *Registry) Add(name, source string, g *graph.Graph) (GraphInfo, error) {
	// The all-dots check keeps names usable as directory names under the
	// data dir ("." and ".." would escape or collide with it).
	if !graphNameRE.MatchString(name) || strings.Trim(name, ".") == "" {
		return GraphInfo{}, fmt.Errorf("server: invalid graph name %q (want %s)", name, graphNameRE)
	}
	dup := fmt.Errorf("server: graph %q already loaded (evict it first)", name)
	if _, ok := r.Resolve(name); ok {
		return GraphInfo{}, dup
	}
	seal(g)
	ep := newEpoch(name, source, g, nil)
	// The batch-zero snapshot is written under the registry lock: the name
	// is only reserved by publish's map insert, so a racing Add of the same
	// name must not interleave directory writes.
	_, err := r.publish(name, nil, ep, 1, func() (err error) {
		ep.store, err = createGraphStore(r.dataDir, name, g)
		return err
	})
	if errors.Is(err, errStale) {
		err = dup
	}
	if err != nil {
		return GraphInfo{}, err
	}
	return ep.Info, nil
}

// LoadInput generates one of the paper's Table 3 inputs (gen.Input) and
// registers it under name.
func (r *Registry) LoadInput(name, input string, scale gen.Scale) (GraphInfo, error) {
	g, _, err := gen.Input(input, scale)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: loading input %q: %w", input, err)
	}
	return r.Add(name, fmt.Sprintf("gen:%s@%d", input, scale), g)
}

// LoadCSRFile reads a serialized CSR binary and registers it under name.
// Files ending in ".csrz" are decoded as compressed CSR (graph.ReadCSRZ);
// anything else as raw (graph.ReadCSR). Both readers carry the same
// hostile-header hardening, and a .csrz load keeps its compressed blocks
// cached so compressed-backend jobs reuse them without re-encoding.
func (r *Registry) LoadCSRFile(name, path string) (GraphInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: opening CSR file: %w", err)
	}
	defer f.Close()
	var g *graph.Graph
	if strings.EqualFold(filepath.Ext(path), ".csrz") {
		g, err = graph.ReadCSRZ(f)
	} else {
		g, err = graph.ReadCSR(f)
	}
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: reading CSR file %s: %w", path, err)
	}
	return r.Add(name, "file:"+path, g)
}

// Resolve returns the named graph's current epoch handle. This is the one
// resolver: a job runs on exactly the returned handle, and the handle stays
// valid for the caller even if the name is updated or evicted afterwards
// (eviction only unregisters).
func (r *Registry) Resolve(name string) (*Epoch, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ep, ok := r.graphs[name]
	return ep, ok
}

// ErrUpdateConflict is returned by ApplyUpdates when another update batch
// (or an evict + reload) changed the named graph between the fold and the
// swap; the client should re-read the graph state and retry. A compaction
// never causes it: it keeps the epoch, and both sides rebase onto the
// other's handle. The HTTP layer maps it to 409.
var ErrUpdateConflict = errors.New("server: graph changed concurrently, retry the update batch")

// ErrNotLoaded wraps "no such graph" failures so the HTTP layer can map
// them to 404.
var ErrNotLoaded = errors.New("not loaded")

// ErrStorage wraps failures of the durable store under a request that was
// itself valid (the WAL append or its fsync), so the HTTP layer answers 500
// rather than blaming the batch.
var ErrStorage = errors.New("durable store failure")

// errStale is publish's answer when the resident handle is no longer the
// one the caller built its successor on.
var errStale = errors.New("server: resident epoch changed")

func notLoaded(name string) error { return fmt.Errorf("server: graph %q %w", name, ErrNotLoaded) }

// publish is the one place a handle becomes resident. Under the registry
// lock it re-checks that name still resolves to from — the HANDLE the caller
// folded next from (nil: the name must be free), not merely its epoch
// number, because a compaction swaps the handle and keeps the number — runs
// commit when given (the durable half of the transition: WAL append,
// snapshot commit, store creation; an epoch is never visible before it is
// on disk), numbers next advance epochs ahead when the transition is a
// data change, swaps it in, and starts a background compaction if next's
// overlay outgrew the threshold. Everything expensive (fold, materialize,
// parameter scan, snapshot render) happened before, outside the lock every
// reader's Resolve contends for. On a stale from it returns the handle
// resident now with errStale, and the caller rebases or gives up; a name
// that vanished is ErrNotLoaded.
func (r *Registry) publish(name string, from, next *Epoch, advance uint64, commit func() error) (*Epoch, error) {
	r.mu.Lock()
	cur, err := r.graphs[name], error(nil)
	switch {
	case cur != from && cur == nil:
		err = notLoaded(name) // evicted meanwhile: a retry is doomed, so 404 rather than a retryable 409
	case cur != from:
		err = errStale
	case commit != nil:
		err = commit()
	}
	if err != nil {
		r.mu.Unlock()
		return cur, err
	}
	if advance > 0 {
		r.epoch += advance
		next.Info.Epoch = r.epoch
		if from == nil {
			next.loaded = r.epoch
		}
	}
	r.graphs[name] = next
	// At most one background compactor per graph: the slot is taken here,
	// under the same lock as the swap that made it necessary.
	compact := r.overThreshold(next) && !r.compacting[name]
	if compact {
		r.compacting[name] = true
		r.wg.Add(1)
	}
	r.mu.Unlock()
	if compact {
		go r.compactAsync(name)
	}
	return next, nil
}

// ApplyUpdates applies one batched edge-update log to the named graph as a
// new epoch in overlay form: the batch is validated against and folded onto
// the resident handle (Epoch.fold — one linear merge into the delta
// overlay, never an O(E) rebuild; the resident epoch is immutable and
// in-flight jobs keep reading it), appended durably to the graph's WAL, and
// published under the next epoch number. If another batch (or an evict +
// reload) got there first the call fails with ErrUpdateConflict rather than
// silently dropping the concurrent change; if only a compaction did — same
// epoch, new base/tail split — the batch is still valid and is folded onto
// the new handle instead, so a lone writer never sees a conflict. The
// applied Delta is retained on the new handle (Epoch.TransitionFrom) for
// incremental jobs; an overlay that outgrows the compaction threshold is
// merged into a fresh CSR snapshot in the background (see Checkpoint). The
// batch is retained on the handle, so it is copied first.
func (r *Registry) ApplyUpdates(name string, ups []graph.EdgeUpdate) (GraphInfo, error) {
	cur, ok := r.Resolve(name)
	if !ok {
		return GraphInfo{}, notLoaded(name)
	}
	return r.applyFrom(cur, slices.Clone(ups))
}

// applyFrom is ApplyUpdates from a handle resolved earlier (tests pin the
// batch-straddles-a-checkpoint race by resolving, checkpointing, and only
// then calling this).
func (r *Registry) applyFrom(cur *Epoch, ups []graph.EdgeUpdate) (GraphInfo, error) {
	name := cur.Info.Name
	for {
		next, err := cur.fold([][]graph.EdgeUpdate{ups})
		if err != nil {
			return GraphInfo{}, fmt.Errorf("server: updating %q: %w", name, err)
		}
		got, err := r.publish(name, cur, next, 1, func() error { return cur.store.AppendBatch(ups) })
		switch {
		case err == nil:
			return next.Info, nil
		case !errors.Is(err, errStale):
			return GraphInfo{}, err
		case got.Info.Epoch != cur.Info.Epoch:
			return GraphInfo{}, ErrUpdateConflict
		}
		cur = got // same epoch under a new split: a compaction installed
	}
}

// overThreshold reports whether ep's overlay outgrew the compaction bound
// (delta entries > |E| / compactDiv).
func (r *Registry) overThreshold(ep *Epoch) bool {
	return r.compactDiv > 0 && ep.Overlay != nil && ep.Overlay.Entries() > ep.Overlay.NumEdges()/r.compactDiv
}

// Checkpoint merges the named graph's epoch into a standalone sealed CSR
// (overlay form is materialized — O(E), which is exactly the cost
// ApplyUpdates does not pay per batch), persists it as the snapshot
// base-<k>.csrz for the k batches the resolved handle held, and installs it
// WITHOUT changing the epoch: outputs are byte-identical across forms and
// splits, so cached results stay valid under their form-qualified keys. The
// materialization and snapshot render run outside the registry lock, and
// batches that land meanwhile do not void them: the install is
// fold(materialized_k, batches beyond k) at the CURRENT epoch number — csr
// form when nothing raced, else an overlay of just the newcomers — with the
// log rewritten to exactly those batches. One pass therefore always leaves
// the overlay no larger than what arrived during it. ErrUpdateConflict is
// returned only when the graph was evicted and reloaded underneath.
func (r *Registry) Checkpoint(name string) (GraphInfo, error) {
	old, ok := r.Resolve(name)
	if !ok {
		return GraphInfo{}, notLoaded(name)
	}
	return r.checkpointFrom(old)
}

// checkpointFrom is Checkpoint from a handle resolved earlier: whatever
// became resident since is what the install rebases (tests pin the race by
// resolving, applying batches, and only then calling this).
func (r *Registry) checkpointFrom(old *Epoch) (GraphInfo, error) {
	name := old.Info.Name
	m := old.Base
	if old.Overlay != nil {
		m = old.Overlay.Materialize()
		seal(m)
	}
	k := old.batches()
	tmp, err := old.store.writeSnapshot(m)
	if err != nil {
		return GraphInfo{}, err
	}
	defer os.Remove(tmp) // a no-op once CommitSnapshot renamed it into place
	next := newEpoch(name, old.Info.Source, m, nil)
	next.Info.BaseBatches, next.Info.Updates = k, old.Info.Updates
	next.loaded, next.store = old.loaded, old.store
	for cur := old; ; {
		// next holds the lineage's first next.batches() batches; fold on
		// whatever cur holds beyond them, and keep cur's number and
		// transition — the content is cur's.
		if next, err = next.fold(cur.tail[next.batches()-cur.Info.BaseBatches:]); err != nil {
			return GraphInfo{}, err
		}
		next.Info.Epoch, next.prevEpoch, next.delta = cur.Info.Epoch, cur.prevEpoch, cur.delta
		got, err := r.publish(name, cur, next, 0, func() error { return cur.store.CommitSnapshot(tmp, k, next.tail) })
		switch {
		case err == nil:
			return next.Info, nil
		case !errors.Is(err, errStale):
			return GraphInfo{}, err
		case got.loaded != old.loaded:
			return GraphInfo{}, ErrUpdateConflict
		case got.Info.BaseBatches > k:
			return got.Info, nil // a racing checkpoint already rebased past k; ours is moot
		}
		cur = got
	}
}

// compactAsync is the background compactor publish starts (one per graph,
// slot and wait-group count already taken): one Checkpoint. Batches that
// land while it materializes are rebased onto the new base rather than
// voiding it, so a pass cannot fail to make progress; should the rebased
// tail itself be over the threshold, the next batch's publish starts the
// next pass. A failed pass (I/O, eviction) leaves the resident epoch as it
// was; there is nobody to report to, and the next batch re-triggers.
func (r *Registry) compactAsync(name string) {
	defer r.wg.Done()
	_, _ = r.Checkpoint(name)
	r.mu.Lock()
	delete(r.compacting, name)
	r.mu.Unlock()
}

// Quiesce blocks until background compactions launched so far finish
// (tests and orderly shutdown).
func (r *Registry) Quiesce() { r.wg.Wait() }

// Recover replays the data directory: for every graph with a committed
// snapshot it loads the highest base-<k>.csrz, seals it, folds the logged
// batches with seq > k into an overlay epoch (a torn or corrupt log tail
// is dropped and the log rewritten to the surviving prefix — a crash
// mid-append loses at most the batch being appended), and registers the
// result. Returns the recovered graphs' infos.
func (r *Registry) Recover() ([]GraphInfo, error) {
	if r.dataDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(r.dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: reading data dir: %w", err)
	}
	var infos []GraphInfo
	for _, e := range entries {
		if !e.IsDir() || !graphNameRE.MatchString(e.Name()) {
			continue
		}
		info, err := r.recoverGraph(e.Name())
		if err != nil {
			return infos, fmt.Errorf("server: recovering %q: %w", e.Name(), err)
		}
		if info.Name != "" {
			infos = append(infos, info)
		}
	}
	return infos, nil
}

// recoverGraph restores one graph directory; a zero GraphInfo means the
// directory held no committed snapshot and was skipped.
func (r *Registry) recoverGraph(name string) (GraphInfo, error) {
	st, g, batches, err := openGraphStore(r.dataDir, name)
	if err != nil || st == nil {
		return GraphInfo{}, err
	}
	seal(g)
	base := newEpoch(name, "wal:"+st.dir, g, nil)
	base.Info.BaseBatches, base.store = st.baseSeq, st
	ep, err := base.fold(batches) // base itself (csr form) when the log is empty
	if err != nil {
		// Every logged batch was validated before it was appended, so a
		// semantic rejection means snapshot and log diverged out of band;
		// refusing the graph beats serving a guessed state.
		err = fmt.Errorf("replaying %d logged batches: %w", len(batches), err)
	} else if _, err = r.publish(name, nil, ep, uint64(1+len(batches)), nil); err != nil { // the load plus one epoch per batch
		err = fmt.Errorf("already loaded")
	}
	if err != nil {
		st.Close()
		return GraphInfo{}, err
	}
	return ep.Info, nil
}

// Evict unregisters name and deletes its durable state (an evicted graph
// must not resurrect at the next boot), reporting whether it was present.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep, ok := r.graphs[name]
	if ok {
		ep.store.Remove()
	}
	delete(r.graphs, name)
	return ok
}

// List returns the resident graphs sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]GraphInfo, 0, len(r.graphs))
	for _, ep := range r.graphs {
		infos = append(infos, ep.Info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ResidentBytes sums the CSR footprint of every resident graph.
func (r *Registry) ResidentBytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, ep := range r.graphs {
		total += ep.Info.CSRBytes
	}
	return total
}
