package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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
}

// Adjacency forms a resident epoch can be served from.
const (
	formCSR     = "csr"
	formOverlay = "overlay"
)

// Registry holds the graphs resident in the serving process. Graphs are
// sealed on load — transpose and edge weights fully materialized — so the
// many concurrent runtimes built over one graph only ever read it; none of
// the lazy mutation paths (core.New's BuildIn, RunOn's weight generation)
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
	// delta is the update batch that produced this epoch and prevEpoch the
	// epoch it was applied to, i.e. delta describes exactly the prevEpoch ->
	// Info.Epoch transition. delta is nil (and prevEpoch meaningless) when
	// the epoch came from a load; read them through TransitionFrom.
	prevEpoch uint64
	delta     *graph.Delta
	// store is the graph's durable state (nil without a data dir); it is
	// carried across epoch swaps and removed on eviction.
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
// O(V) degree scan. The caller fills in what only the registry knows (the
// epoch number, the update count, the transition, the durable store) under
// the lock, before the handle is published.
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
// RunOn over the graph read-only. Order matters: weights invalidate cached
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
	dup := func() error {
		if _, ok := r.graphs[name]; ok {
			return fmt.Errorf("server: graph %q already loaded (evict it first)", name)
		}
		return nil
	}
	r.mu.RLock()
	err := dup()
	r.mu.RUnlock()
	if err != nil {
		return GraphInfo{}, err
	}
	seal(g)
	ep := newEpoch(name, source, g, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := dup(); err != nil {
		return GraphInfo{}, err
	}
	if r.dataDir != "" {
		// The batch-zero snapshot is written under the registry lock: the
		// name is only reserved by the map insert below, so a racing Add
		// of the same name must not interleave directory writes.
		if ep.store, err = createGraphStore(r.dataDir, name, g); err != nil {
			return GraphInfo{}, err
		}
	}
	r.epoch++
	ep.Info.Epoch = r.epoch
	r.graphs[name] = ep
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

// ErrUpdateConflict is returned by ApplyUpdates when the named graph
// changed (another update batch, or an evict + reload) between the rebuild
// and the swap; the client should re-read the graph state and retry. The
// HTTP layer maps it to 409.
var ErrUpdateConflict = errors.New("server: graph changed concurrently, retry the update batch")

// ErrNotLoaded wraps "no such graph" failures so the HTTP layer can map
// them to 404.
var ErrNotLoaded = errors.New("not loaded")

// ApplyUpdates applies one batched edge-update log to the named graph as a
// new epoch in overlay form: the batch is validated against and folded
// into the current epoch's delta overlay (graph.Overlay.Apply — O(|delta|
// + batch·log d), never an O(E) rebuild; the resident epoch is immutable
// and in-flight jobs keep reading it), appended durably to the graph's WAL,
// and the registry entry is swapped under the next epoch. The fold and the
// new handle's derivation (newEpoch's O(V) default-parameter scan) run
// outside the registry lock, which every reader's Resolve on every graph
// contends for; if the entry changed meanwhile the swap fails
// with ErrUpdateConflict rather than silently dropping the concurrent
// change. The WAL append happens under the lock, after the conflict check
// and before the swap — an epoch is never visible before its batch is on
// disk, and a logged batch that fails to commit is at worst a subsumable
// duplicate-free prefix record. The applied Delta is retained on the new
// handle (Epoch.TransitionFrom) for incremental jobs; an overlay that
// outgrows the compaction threshold is merged into a fresh CSR snapshot in
// the background (see Checkpoint).
func (r *Registry) ApplyUpdates(name string, ups []graph.EdgeUpdate) (GraphInfo, error) {
	old, ok := r.Resolve(name)
	if !ok {
		return GraphInfo{}, fmt.Errorf("server: graph %q %w", name, ErrNotLoaded)
	}
	base := old.Overlay
	if base == nil {
		base = graph.NewOverlay(old.Base)
	}
	nov, delta, err := base.Apply(ups)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: updating %q: %w", name, err)
	}
	ep := newEpoch(name, old.Info.Source, nov.Base(), nov)
	ep.Info.Updates, ep.prevEpoch, ep.delta = old.Info.Updates+1, old.Info.Epoch, &delta
	r.mu.Lock()
	cur, ok := r.graphs[name]
	if !ok {
		// Evicted while we folded: a retry is doomed, so report 404
		// rather than the retryable 409.
		r.mu.Unlock()
		return GraphInfo{}, fmt.Errorf("server: graph %q %w", name, ErrNotLoaded)
	}
	if cur.Info.Epoch != old.Info.Epoch {
		r.mu.Unlock()
		return GraphInfo{}, ErrUpdateConflict
	}
	if cur.store != nil {
		if err := cur.store.AppendBatch(ups); err != nil {
			r.mu.Unlock()
			return GraphInfo{}, fmt.Errorf("server: logging update for %q: %w", name, err)
		}
	}
	r.epoch++
	ep.Info.Epoch, ep.store = r.epoch, cur.store
	r.graphs[name] = ep
	compact := r.overThreshold(ep)
	r.mu.Unlock()
	if compact {
		r.compactAsync(name)
	}
	return ep.Info, nil
}

// overThreshold reports whether ep's overlay outgrew the compaction bound
// (delta entries > |E| / compactDiv).
func (r *Registry) overThreshold(ep *Epoch) bool {
	return r.compactDiv > 0 && ep.Overlay != nil && ep.Overlay.Entries() > ep.Overlay.NumEdges()/r.compactDiv
}

// Checkpoint merges the named graph's current epoch into a standalone
// sealed CSR (overlay form is materialized — O(E), which is exactly the
// cost ApplyUpdates no longer pays per batch), persists it as the new
// base-<k>.csrz snapshot, truncates the WAL it subsumes, and swaps the
// registry entry to csr form WITHOUT changing the epoch: outputs are
// byte-identical across forms, so cached results stay valid under their
// form-qualified keys. The materialization and snapshot render run
// outside the registry lock; a batch that lands meanwhile fails the swap
// with ErrUpdateConflict (callers retry or reschedule).
func (r *Registry) Checkpoint(name string) (GraphInfo, error) {
	old, ok := r.Resolve(name)
	if !ok {
		return GraphInfo{}, fmt.Errorf("server: graph %q %w", name, ErrNotLoaded)
	}
	m := old.Base
	if old.Overlay != nil {
		m = old.Overlay.Materialize()
		seal(m)
	}
	tmp := ""
	if old.store != nil {
		var err error
		if tmp, err = old.store.writeSnapshot(m); err != nil {
			return GraphInfo{}, err
		}
	}
	ep := newEpoch(name, old.Info.Source, m, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.graphs[name]
	if !ok || cur.Info.Epoch != old.Info.Epoch {
		if tmp != "" {
			os.Remove(tmp)
		}
		if !ok {
			return GraphInfo{}, fmt.Errorf("server: graph %q %w", name, ErrNotLoaded)
		}
		return GraphInfo{}, ErrUpdateConflict
	}
	if cur.store != nil {
		if err := cur.store.CommitSnapshot(tmp); err != nil {
			return GraphInfo{}, err
		}
	}
	ep.Info.Epoch, ep.Info.Updates = cur.Info.Epoch, cur.Info.Updates
	ep.prevEpoch, ep.delta, ep.store = cur.prevEpoch, cur.delta, cur.store
	r.graphs[name] = ep
	return ep.Info, nil
}

// compactAsync starts (at most) one background compactor for name. The
// compactor checkpoints and re-checks the threshold until the overlay is
// back under it — a batch that lands mid-materialization conflicts the
// swap, and the loop simply renders the newer epoch instead of leaking an
// ever-growing overlay.
func (r *Registry) compactAsync(name string) {
	r.mu.Lock()
	if r.compacting[name] {
		r.mu.Unlock()
		return
	}
	r.compacting[name] = true
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			_, err := r.Checkpoint(name)
			r.mu.Lock()
			ep, ok := r.graphs[name]
			retry := (err == nil || errors.Is(err, ErrUpdateConflict)) && ok && r.overThreshold(ep)
			if !retry {
				delete(r.compacting, name)
				r.mu.Unlock()
				return
			}
			r.mu.Unlock()
		}
	}()
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
	var ov *graph.Overlay // stays nil (csr form) when the log is empty
	var delta *graph.Delta
	for i, b := range batches {
		if ov == nil {
			ov = graph.NewOverlay(g)
		}
		nov, d, err := ov.Apply(b)
		if err != nil {
			// Every logged batch was validated before it was appended, so
			// a semantic rejection means snapshot and log diverged out of
			// band; refusing the graph beats serving a guessed state.
			st.Close()
			return GraphInfo{}, fmt.Errorf("replaying batch %d: %w", i+1, err)
		}
		ov, delta = nov, &d
	}
	ep := newEpoch(name, "wal:"+st.dir, g, ov)
	r.mu.Lock()
	if _, ok := r.graphs[name]; ok {
		r.mu.Unlock()
		st.Close()
		return GraphInfo{}, fmt.Errorf("already loaded")
	}
	r.epoch += uint64(1 + len(batches)) // the load plus one epoch per batch
	ep.Info.Epoch, ep.Info.Updates, ep.store = r.epoch, len(batches), st
	ep.prevEpoch, ep.delta = r.epoch-1, delta
	r.graphs[name] = ep
	compact := r.overThreshold(ep)
	r.mu.Unlock()
	if compact {
		r.compactAsync(name)
	}
	return ep.Info, nil
}

// Evict unregisters name and deletes its durable state (an evicted graph
// must not resurrect at the next boot), reporting whether it was present.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep, ok := r.graphs[name]
	if ok && ep.store != nil {
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
