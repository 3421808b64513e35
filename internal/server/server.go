package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pmemgraph/internal/analytics"
	"pmemgraph/internal/core"
	"pmemgraph/internal/engine"
	"pmemgraph/internal/frameworks"
	"pmemgraph/internal/gen"
	"pmemgraph/internal/graph"
	"pmemgraph/internal/memsim"
)

// Config configures a serving instance.
type Config struct {
	// Machine is the simulated platform every job runs on. Each job gets
	// a fresh memsim.Machine from this config, so concurrent jobs never
	// share simulator state and each result is a pure function of
	// (graph, request, machine config).
	Machine memsim.MachineConfig
	// Workers bounds concurrent kernel executions (0 = DefaultWorkers).
	Workers int
	// Classes configures the admission classes (per-class bounded queues,
	// drain weights, deadline shedding); nil picks DefaultClasses.
	Classes []ClassConfig
	// CacheBytes bounds the result cache's retained bodies (0 =
	// DefaultStoreBytes). A result larger than the bound is served but not
	// retained.
	CacheBytes int64
	// MaxJobs bounds retained job records (0 = DefaultMaxJobs); the
	// oldest completed jobs are forgotten past it.
	MaxJobs int
	// MaxShards bounds JobRequest.Shards (0 = DefaultMaxShards). Each
	// shard worker is a full simulated machine plus a replicated label
	// array, so the ceiling is a resident-memory guard, not a correctness
	// one.
	MaxShards int
	// SeedBytes bounds the incremental seed store (0 = DefaultStoreBytes).
	SeedBytes int64
	// DataDir, when set, makes graphs durable: each registered graph
	// persists a sealed .csrz snapshot plus a WAL of applied update
	// batches, and Recover replays them at boot. Empty = in-memory only.
	DataDir string
	// CompactDiv sets the overlay compaction threshold divisor
	// (0 = DefaultCompactDiv, i.e. compact once the delta exceeds |E|/20;
	// negative disables background compaction — POST
	// /v1/graphs/{name}/checkpoint still compacts on demand).
	CompactDiv int64
}

// DefaultMaxJobs bounds the job history when Config.MaxJobs is 0.
const DefaultMaxJobs = 4096

// DefaultMaxShards bounds JobRequest.Shards when Config.MaxShards is 0.
const DefaultMaxShards = 16

// JobRequest is the submission body of POST /v1/jobs.
type JobRequest struct {
	Graph string `json:"graph"`
	App   string `json:"app"`
	// Framework selects the profile by name; empty means Galois (the
	// paper's recommended configuration).
	Framework string `json:"framework,omitempty"`
	// Threads is the virtual thread count (0 = the machine's maximum).
	Threads int `json:"threads,omitempty"`
	// Backend selects the simulated CSR storage backend: "raw" (default)
	// or "compressed" (delta+varint byte blocks; identical results,
	// different traffic and timing). The result-cache key incorporates
	// it, so the two backends never alias each other's entries.
	Backend string `json:"backend,omitempty"`
	// Params overrides individual kernel parameters; unset fields take
	// the deterministic per-graph defaults (frameworks.DefaultParams).
	Params *ParamOverrides `json:"params,omitempty"`
	// Class selects the admission class ("" = the first configured class,
	// interactive by default). Each class has its own bounded queue and
	// drain weight; the class never affects the kernel execution or its
	// cache key, only scheduling.
	Class string `json:"class,omitempty"`
	// DeadlineMS is a relative deadline in milliseconds from submission
	// (0 = none). The class queue drains deadline-first, and a job whose
	// deadline expires while it queues is shed (terminal "shed" state,
	// 503 on the result endpoints) instead of executed.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Shards, when positive, runs the job as scatter/gather BSP supersteps
	// over that many in-process shard workers (internal/shard), each with
	// its own simulated machine and backend over one contiguous vertex
	// range. Outputs are bitwise identical to shards=1 (the sharded
	// conformance suite locks it); only the charging differs. 0 = the
	// ordinary single-runtime execution. Sharded jobs require a csr-form
	// epoch (checkpoint overlay graphs first), an app with a BSP kernel
	// (everything but tc), and are incompatible with Incremental. The
	// cache key carries the shard count, so differently-sharded runs of
	// one request never alias each other's timing metadata.
	Shards int `json:"shards,omitempty"`
	// NoCache bypasses the result cache (the run still executes
	// deterministically; used to measure cold-path behavior).
	NoCache bool `json:"no_cache,omitempty"`
	// Incremental opts into incremental recomputation (cc and pr only):
	// the job is seeded from the retained prior-epoch artifact when the
	// graph is exactly one update batch ahead of it, and falls back to a
	// full recompute (recording a fresh seed) otherwise. Outputs are
	// byte-identical to a full run either way; only the charging differs.
	Incremental bool `json:"incremental,omitempty"`
}

// ParamOverrides carries optional per-app parameter overrides; nil fields
// keep the defaults.
type ParamOverrides struct {
	Source *graph.Node `json:"source,omitempty"` // bc, bfs, sssp
	Delta  *uint32     `json:"delta,omitempty"`  // sssp bucket width
	K      *int64      `json:"k,omitempty"`      // kcore threshold
	Tol    *float64    `json:"tol,omitempty"`    // pr tolerance
	Rounds *int        `json:"rounds,omitempty"` // pr max rounds
}

// apply folds the overrides into params.
func (o *ParamOverrides) apply(params *frameworks.Params) {
	if o == nil {
		return
	}
	if o.Source != nil {
		params.Source = *o.Source
	}
	if o.Delta != nil {
		params.Delta = *o.Delta
	}
	if o.K != nil {
		params.K = *o.K
	}
	if o.Tol != nil {
		params.Tol = *o.Tol
	}
	if o.Rounds != nil {
		params.Rounds = *o.Rounds
	}
}

// Server wires the registry, scheduler and cache behind an http.Handler.
type Server struct {
	cfg   Config
	reg   *Registry
	cache *boundedStore[[]byte]
	seeds *boundedStore[seedEntry]
	sched *Scheduler

	mu       sync.Mutex
	jobs     map[string]*Job
	jobOrder []string

	// flights coalesces concurrent cache misses on the same key: the
	// first job runs the kernel, duplicates wait on its completion and
	// reuse the bytes. Determinism makes this lossless — the waiters
	// receive exactly what their own execution would have produced.
	flightMu sync.Mutex
	flights  map[string]*flight
	executed atomic.Uint64
}

// flight is one in-progress kernel execution duplicates can wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// seedEntry is one retained prior-epoch artifact: the seed plus the epoch
// whose graph it was computed on. An incremental job may consume it only
// when that epoch is exactly one update batch behind the job's own
// (Epoch.TransitionFrom), which is what keeps seeded executions honest — a seed
// can never silently skip an intervening batch.
type seedEntry struct {
	Epoch uint64
	Seed  *frameworks.Seed
}

// New builds a serving instance over cfg.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistryAt(cfg.DataDir, cfg.CompactDiv),
		// Values under one cache key are byte-identical by determinism, so
		// racing misses that fill the same key keep the first.
		cache: newBoundedStore(cfg.CacheBytes,
			func(b []byte) int64 { return int64(len(b)) },
			func(_, _ []byte) bool { return false }),
		// The newest epoch's seed wins (a slow pre-update job finishing late
		// must not clobber the seed a post-update job already recorded); on
		// a tie the richer artifact does (seed keys ignore tol/rounds, so a
		// short pr trajectory recorded by a low-rounds job must not shadow a
		// same-epoch full one).
		seeds: newBoundedStore(cfg.SeedBytes,
			func(e seedEntry) int64 { return e.Seed.Bytes() },
			func(old, e seedEntry) bool {
				return e.Epoch > old.Epoch || (e.Epoch == old.Epoch && e.Seed.Bytes() > old.Seed.Bytes())
			}),
		jobs:    make(map[string]*Job),
		flights: make(map[string]*flight),
	}
	s.sched = NewClassScheduler(cfg.Workers, cfg.Classes, s.runJob)
	return s
}

// Registry exposes the graph registry (in-process loaders, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Recover replays the data directory's persisted graphs (snapshot + WAL)
// into the registry; a no-op without a configured DataDir.
func (s *Server) Recover() ([]GraphInfo, error) { return s.reg.Recover() }

// Close drains the scheduler and waits out background compactions.
func (s *Server) Close() {
	s.sched.Close()
	s.reg.Quiesce()
}

// defaultThreads resolves a request's thread count.
func (s *Server) defaultThreads(threads int) int {
	if threads > 0 {
		return threads
	}
	return s.cfg.Machine.MaxThreads()
}

// jobPlan is a validated request resolved against the registry: the one
// epoch handle plus the profile, parameters, thread count and storage
// backend one execution is a function of. Everything runJob reads about
// the graph — adjacency form, partition, seed transition — comes off ep.
type jobPlan struct {
	profile frameworks.Profile
	// ep is the epoch the job runs on. An overlay-form epoch runs over the
	// overlay (base charged as usual plus the small delta arrays).
	ep      *Epoch
	app     string
	params  frameworks.Params
	threads int
	// shards is the validated BSP fan-out width (0 = unsharded).
	shards      int
	incremental bool
	// opts is the exact runtime configuration the job executes with
	// (profile options + requested backend); the cache key formats this
	// same value, so key and execution cannot drift apart.
	opts    core.Options
	machine string
}

// key builds the exact-result cache key. It covers everything a kernel
// execution is a function of: the resident graph identity (name + epoch,
// so a reloaded or updated graph never aliases its predecessor), the
// kernel, the profile's engine parameters (engine.Config) and runtime
// options (core.Options, which carry the storage backend), the resolved
// per-app parameters, the machine configuration name, and whether the job
// opted into incremental execution. Because the engine is deterministic and
// results serialize to canonical bytes (analytics.MarshalResult), equal
// keys imply byte-identical results — a hit is provably the value a re-run
// would compute. Incremental executions get their own namespace ("|inc"):
// their OUTPUTS are bitwise the full run's, but their charging metadata
// (seconds, counters, algorithm) reflects the incremental path, and
// additionally depends on whether a prior-epoch seed was retained when the
// first such job executed — so they must never alias the full entries,
// whose bytes ARE a pure function of the key. The epoch's adjacency form
// (Info.Form: csr vs overlay) is in the key for the same reason: a
// compaction keeps the epoch and the outputs but changes the charging, so
// the two forms' bytes must never alias — and neither must two overlay
// SPLITS of one epoch (a compaction beside writes rebases the epoch onto a
// later base), so overlay form is qualified by the batches its base holds
// ("f=overlay@<k>"). Sharded executions are qualified
// by their shard count ("|s<N>") for the same reason again: outputs are
// bitwise identical across shard counts, but the timing and traffic
// metadata in the serialized Result are per-width. The key leads with
// "<graph>|<epoch>|" so per-graph invalidation is a prefix match.
func (p *jobPlan) key() string {
	inc := ""
	if p.incremental {
		inc = "|inc"
	}
	if p.shards > 0 {
		inc += fmt.Sprintf("|s%d", p.shards)
	}
	info := p.ep.Info
	form := info.Form
	if form == formOverlay {
		form = fmt.Sprintf("%s@%d", form, info.BaseBatches)
	}
	return fmt.Sprintf("%s|%d|f=%s|%s|%s|t%d|cfg%+v|opt%+v|par%+v|m=%s%s",
		info.Name, info.Epoch, form, p.app, p.profile.Name, p.threads, p.profile.Engine(), p.opts, p.params, p.machine, inc)
}

// graphKeyPrefix returns the prefix shared by every cache and seed key of a
// graph name (all epochs).
func graphKeyPrefix(name string) string { return name + "|" }

// seedKey identifies the artifact a frameworks.Seed belongs to: just
// (graph, app). Unlike result bytes, seed CONTENT is a pure function of
// the graph epoch alone — cc labels are the canonical min-ID labeling
// every variant converges to, and a pr trajectory's round-k vector is
// determined by the graph (threads, machine, backend and profile change
// only charging; tolerance and round caps change only how many rounds get
// recorded, and a shorter trajectory is still bitwise-valid input) — all
// of which the incremental conformance suite asserts. Keying on anything
// epoch-derived (e.g. the resolved default Source, which can move when an
// update changes the max-degree vertex) would orphan seeds across epochs;
// keying on profile/machine/params would only duplicate identical
// artifacts.
func (p *jobPlan) seedKey() string { return graphKeyPrefix(p.ep.Info.Name) + p.app }

// invalidRequest marks a validation refusal raised at execution time (the
// graph changed form or left while the job queued), so the result
// endpoints answer it 400 exactly like the same refusal at submit.
type invalidRequest struct{ error }

// validate resolves the request's graph once and checks the request against
// that epoch and the profile capability gates, returning everything runJob
// needs.
func (s *Server) validate(req JobRequest) (jobPlan, error) {
	plan := jobPlan{app: req.App, shards: req.Shards, incremental: req.Incremental, machine: s.cfg.Machine.Name}
	fw := req.Framework
	if fw == "" {
		fw = "Galois"
	}
	p, ok := frameworks.ByName(fw)
	if !ok {
		return plan, fmt.Errorf("unknown framework %q", fw)
	}
	plan.profile = p
	if !s.sched.HasClass(req.Class) {
		return plan, fmt.Errorf("unknown class %q (have %s)", req.Class, strings.Join(s.sched.ClassNames(), ", "))
	}
	if req.DeadlineMS < 0 {
		return plan, fmt.Errorf("negative deadline %dms", req.DeadlineMS)
	}
	backend, err := core.ParseBackend(req.Backend)
	if err != nil {
		return plan, err
	}
	ep, ok := s.reg.Resolve(req.Graph)
	if !ok {
		return plan, fmt.Errorf("graph %q not loaded", req.Graph)
	}
	plan.ep = ep
	known := false
	for _, app := range frameworks.Apps() {
		if app == req.App {
			known = true
		}
	}
	if !known {
		return plan, fmt.Errorf("unknown app %q (have %s)", req.App, strings.Join(frameworks.Apps(), ", "))
	}
	if req.Incremental && !frameworks.IncrementalApp(req.App) {
		return plan, fmt.Errorf("%s has no incremental variant (cc and pr only)", req.App)
	}
	if req.Shards < 0 {
		return plan, fmt.Errorf("negative shard count %d", req.Shards)
	}
	maxShards := s.cfg.MaxShards
	if maxShards <= 0 {
		maxShards = DefaultMaxShards
	}
	if req.Shards > maxShards {
		return plan, fmt.Errorf("shard count %d exceeds the configured limit %d", req.Shards, maxShards)
	}
	if req.Shards > 0 {
		if req.Incremental {
			return plan, fmt.Errorf("sharded jobs cannot run incrementally")
		}
		if !frameworks.ShardedApp(req.App) {
			return plan, fmt.Errorf("%s has no sharded BSP kernel", req.App)
		}
		if ep.Overlay != nil {
			return plan, fmt.Errorf("graph %q is overlay-form; checkpoint it before sharded jobs", req.Graph)
		}
	}
	if !p.Supports(req.App) {
		return plan, fmt.Errorf("%s does not implement %s", p.Name, req.App)
	}
	if !p.CanLoad(ep.Base) {
		return plan, fmt.Errorf("%s cannot load %d nodes (signed 32-bit node IDs)", p.Name, ep.Info.Nodes)
	}
	plan.params = ep.Params
	req.Params.apply(&plan.params)
	if int64(plan.params.Source) >= int64(ep.Info.Nodes) {
		return plan, fmt.Errorf("source %d out of range (graph has %d nodes)", plan.params.Source, ep.Info.Nodes)
	}
	plan.threads = s.defaultThreads(req.Threads)
	plan.opts = p.Options(req.App, plan.threads)
	plan.opts.Backend = backend
	return plan, nil
}

// Submit validates req and enqueues it.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if _, err := s.validate(req); err != nil {
		return nil, err
	}
	job, err := s.sched.Submit(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.jobOrder = append(s.jobOrder, job.ID)
	for len(s.jobOrder) > s.cfg.MaxJobs {
		drop := s.jobOrder[0]
		if j, ok := s.jobs[drop]; ok {
			select {
			case <-j.Done():
				delete(s.jobs, drop)
				s.jobOrder = s.jobOrder[1:]
				continue
			default:
			}
		} else {
			s.jobOrder = s.jobOrder[1:]
			continue
		}
		break // oldest job still in flight; retain until it completes
	}
	s.mu.Unlock()
	return job, nil
}

// Job returns the tracked job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runJob executes one scheduled job: resolve the graph's freshest epoch (it
// may have been updated or evicted since submit — resolution stays at
// execution so queued jobs never pin old epochs), consult the cache, and
// otherwise run the kernel on a fresh simulated machine and fill the cache
// with the canonical bytes. Determinism makes the cache exact: the key
// covers every input of the execution, so the cached bytes are the bytes a
// re-run would produce. Concurrent misses on one key coalesce — the first
// runs, the rest wait and reuse its bytes (reported as cache hits: they did
// not execute, and determinism guarantees the bytes are exactly what they
// would have computed). A worker waiting on a flight cannot deadlock: the
// flight's owner runs on another worker and kernels always terminate.
func (s *Server) runJob(job *Job) ([]byte, bool, error) {
	plan, err := s.validate(job.Req)
	if err != nil {
		return nil, false, invalidRequest{err}
	}
	p, ep := plan.profile, plan.ep
	key := plan.key()
	var fl *flight
	if !job.Req.NoCache {
		if data, ok := s.cache.Get(key); ok {
			return data, true, nil
		}
		s.flightMu.Lock()
		if waitFor, ok := s.flights[key]; ok {
			s.flightMu.Unlock()
			<-waitFor.done
			if waitFor.err != nil {
				return nil, false, waitFor.err
			}
			return waitFor.data, true, nil
		}
		fl = &flight{done: make(chan struct{})}
		s.flights[key] = fl
		s.flightMu.Unlock()
		defer func() {
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(fl.done)
		}()
	}
	s.executed.Add(1)
	m := memsim.NewMachine(s.cfg.Machine)
	var res *analytics.Result
	if plan.incremental {
		// Seeded execution: usable only when the retained seed was computed
		// on the source epoch of the one batch that produced THIS handle.
		// Anything else (no update yet, a missed batch, an evict + reload)
		// runs the full path, which records a fresh seed for the next
		// epoch.
		var seed *frameworks.Seed
		var delta *graph.Delta
		if ent, ok := s.seeds.Get(plan.seedKey()); ok {
			if delta = ep.TransitionFrom(ent.Epoch); delta != nil {
				seed = ent.Seed
			}
		}
		var newSeed *frameworks.Seed
		if ep.Overlay != nil {
			res, newSeed, err = p.RunIncrementalOverlayOnOpts(m, ep.Overlay, plan.app, plan.opts, plan.params, seed, delta)
		} else {
			res, newSeed, err = p.RunIncrementalOnOpts(m, ep.Base, plan.app, plan.opts, plan.params, seed, delta)
		}
		if err == nil {
			s.seeds.Put(plan.seedKey(), seedEntry{Epoch: ep.Info.Epoch, Seed: newSeed})
		}
	} else if plan.shards > 0 {
		// Sharded BSP fan-out over the epoch's partitioned form for this
		// shard count (built on first use, retained on the handle).
		var part *graph.Partition
		if part, err = ep.Partition(plan.shards); err == nil {
			res, err = frameworks.RunShardedOnOpts(s.cfg.Machine, part, plan.app, plan.opts, plan.params)
		}
	} else if ep.Overlay != nil {
		res, err = p.RunOverlayOnOpts(m, ep.Overlay, plan.app, plan.opts, plan.params)
	} else {
		res, err = p.RunOnOpts(m, ep.Base, plan.app, plan.opts, plan.params)
	}
	var data []byte
	if err == nil {
		data, err = analytics.MarshalResult(res)
	}
	if err != nil {
		if fl != nil {
			fl.err = err
		}
		return nil, false, err
	}
	if fl != nil {
		s.cache.Put(key, data)
		fl.data = data
	}
	return data, false, nil
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Graphs struct {
		Count         int   `json:"count"`
		ResidentBytes int64 `json:"resident_bytes"`
	} `json:"graphs"`
	Cache     StoreStats     `json:"cache"`
	Seeds     StoreStats     `json:"seeds"`
	Scheduler SchedulerStats `json:"scheduler"`
	// KernelExecutions counts actual kernel runs; completed jobs beyond
	// it were served by the cache or coalesced onto an in-flight run.
	KernelExecutions uint64 `json:"kernel_executions"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	var st Stats
	st.Graphs.Count = len(s.reg.List())
	st.Graphs.ResidentBytes = s.reg.ResidentBytes()
	st.Cache = s.cache.Stats()
	st.Seeds = s.seeds.Stats()
	st.Scheduler = s.sched.Stats()
	st.KernelExecutions = s.executed.Load()
	return st
}

// --- HTTP layer ---

type errorBody struct {
	Error string `json:"error"`
}

// shedBody is the structured load-shedding error: every shed response
// (429 queue-full, 503 deadline/close shed) keeps the uniform "error"
// field and adds the class-level detail clients need to back off.
type shedBody struct {
	Error      string `json:"error"`
	Class      string `json:"class,omitempty"`
	Queued     int    `json:"queued,omitempty"`
	QueueCap   int    `json:"queue_cap,omitempty"`
	ShedReason string `json:"shed_reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Request-body bounds. Job and load bodies are a handful of scalars; an
// update body must admit a million-update batch at ~64 JSON bytes each.
const (
	maxRequestBody = 1 << 20
	maxUpdateBody  = 128 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 (oversized) or 400 (malformed) itself; false means the
// response is already written.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, "decoding request: %v", err)
	return false
}

// loadGraphRequest is the POST /v1/graphs body: exactly one of Input
// (Table 3 generator name) or Path (serialized CSR file) must be set.
type loadGraphRequest struct {
	Name  string `json:"name"`
	Input string `json:"input,omitempty"`
	Scale string `json:"scale,omitempty"` // "small" (default) or "full"
	Path  string `json:"path,omitempty"`
}

// Handler returns the HTTP API (README.md carries the full endpoint
// reference with request/response shapes):
//
//	GET    /healthz                    liveness
//	GET    /v1/graphs                  resident graphs
//	POST   /v1/graphs                  load a Table 3 input or CSR file
//	POST   /v1/graphs/{name}/updates   apply an edge-update batch (new epoch)
//	POST   /v1/graphs/{name}/checkpoint  merge the overlay into a sealed
//	                                   CSR snapshot and truncate the WAL
//	DELETE /v1/graphs/{name}           evict (and invalidate cached results)
//	POST   /v1/jobs                    submit a kernel job (?wait=1 blocks)
//	GET    /v1/jobs                    job statuses
//	GET    /v1/jobs/{id}               one job's status
//	GET    /v1/jobs/{id}/result        canonical Result bytes
//	GET    /v1/jobs/{id}/trace         per-round trace as a JSON array
//	GET    /v1/jobs/{id}/trace/stream  per-round trace as NDJSON
//	GET    /v1/stats                   cache/seed/scheduler/registry counters
//
// Every error response from every endpoint — including the mux's own 404s
// and 405s, which jsonErrors rewrites — is a structured JSON body of the
// form {"error": "..."}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "machine": s.cfg.Machine.Name})
	})
	mux.HandleFunc("GET /v1/graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.List())
	})
	mux.HandleFunc("POST /v1/graphs", s.handleLoadGraph)
	mux.HandleFunc("POST /v1/graphs/{name}/updates", s.handleGraphUpdates)
	mux.HandleFunc("POST /v1/graphs/{name}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("DELETE /v1/graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		if !s.reg.Evict(name) {
			writeError(w, http.StatusNotFound, "graph %q not loaded", name)
			return
		}
		// Epoch-qualified keys already make stale hits impossible, and the
		// seed's epoch check would reject a reloaded graph's inheritance;
		// dropping both frees the memory with the data it was computed from.
		dropped := s.cache.InvalidatePrefix(graphKeyPrefix(name))
		s.seeds.InvalidatePrefix(graphKeyPrefix(name))
		writeJSON(w, http.StatusOK, map[string]any{"evicted": name, "cache_entries_dropped": dropped})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		statuses := make([]JobStatus, 0, len(s.jobOrder))
		for _, id := range s.jobOrder {
			if j, ok := s.jobs[id]; ok {
				statuses = append(statuses, j.Status())
			}
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, statuses)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/trace/stream", s.handleJobTraceStream)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	return jsonErrors(mux)
}

// updateGraphRequest is the POST /v1/graphs/{name}/updates body.
type updateGraphRequest struct {
	Updates []graph.EdgeUpdate `json:"updates"`
}

// handleGraphUpdates applies one batched edge-update log: the registry
// folds the batch into the graph's delta overlay and swaps in the resulting
// overlay-form handle under a new epoch (no rebuild — compaction merges it
// into a sealed CSR later, off this path), and the old epoch's cached
// results for this graph (and only this graph) are dropped. Jobs racing
// the update are safe regardless of ordering: a job that resolved the old
// handle runs on the immutable old epoch under the old epoch's cache key,
// and any job resolved after the swap sees the new epoch — epoch-qualified keys make serving a pre-update result for a
// post-update submission impossible (locked under -race by
// TestJobsRacingUpdatesNeverObserveStaleResults).
func (s *Server) handleGraphUpdates(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req updateGraphRequest
	if !decodeBody(w, r, maxUpdateBody, &req) {
		return
	}
	if len(req.Updates) == 0 {
		writeError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	info, err := s.reg.ApplyUpdates(name, req.Updates)
	if err != nil {
		writeError(w, registryStatus(err, http.StatusBadRequest), "%v", err)
		return
	}
	dropped := s.cache.InvalidatePrefix(graphKeyPrefix(name))
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":                 info,
		"applied":               len(req.Updates),
		"cache_entries_dropped": dropped,
	})
}

// registryStatus maps a registry error to its HTTP status: 404 for an
// unknown graph, 409 for a lost race, 500 for the durable store; anything
// else is the caller's fallback (a bad batch is the client's fault, a
// failed checkpoint the server's).
func registryStatus(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrNotLoaded):
		return http.StatusNotFound
	case errors.Is(err, ErrUpdateConflict):
		return http.StatusConflict
	case errors.Is(err, ErrStorage):
		return http.StatusInternalServerError
	}
	return fallback
}

// handleCheckpoint merges the named graph's overlay epoch into a fresh
// sealed CSR, persists it as the new snapshot (when a data dir is
// configured) and rewrites the WAL to the batches beyond it. The epoch is
// unchanged — this is a form change, not a data change — so no cache
// invalidation happens; post-checkpoint jobs simply key under the new form.
// Batches racing the checkpoint are rebased onto the new base (200, overlay
// form over it); 409 is left for an evict + reload underneath.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, err := s.reg.Checkpoint(name)
	if err != nil {
		writeError(w, registryStatus(err, http.StatusInternalServerError), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"graph": info})
}

// jsonErrors wraps the mux so its built-in plain-text error responses
// (404 on unmatched paths, 405 on method mismatches — emitted via
// http.Error) are rewritten into the same {"error": ...} JSON body every
// handler in this package produces, keeping the error contract uniform
// across the whole surface. Handler-produced responses set their own
// Content-Type before WriteHeader and pass through untouched.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
	})
}

type jsonErrorWriter struct {
	http.ResponseWriter
	rewrite bool
}

func (w *jsonErrorWriter) WriteHeader(code int) {
	// http.Error stamps text/plain before WriteHeader; handlers that
	// speak JSON (or NDJSON) already stamped their own type.
	if code >= 400 && strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		w.rewrite = true
		w.Header().Set("Content-Type", "application/json")
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(p []byte) (int, error) {
	if !w.rewrite {
		return w.ResponseWriter.Write(p)
	}
	body, err := json.Marshal(errorBody{Error: strings.TrimRight(string(p), "\n")})
	if err != nil {
		return w.ResponseWriter.Write(p)
	}
	if _, err := w.ResponseWriter.Write(append(body, '\n')); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Flush preserves the streaming trace endpoint's flushes through the
// wrapper.
func (w *jsonErrorWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req loadGraphRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if (req.Input == "") == (req.Path == "") {
		writeError(w, http.StatusBadRequest, "exactly one of input or path must be set")
		return
	}
	var info GraphInfo
	var err error
	if req.Input != "" {
		scale := gen.ScaleSmall
		switch req.Scale {
		case "", "small":
		case "full":
			scale = gen.ScaleFull
		default:
			writeError(w, http.StatusBadRequest, "unknown scale %q (want small or full)", req.Scale)
			return
		}
		name := req.Name
		if name == "" {
			name = req.Input
		}
		info, err = s.reg.LoadInput(name, req.Input, scale)
	} else {
		if req.Name == "" {
			writeError(w, http.StatusBadRequest, "name is required when loading from a file")
			return
		}
		info, err = s.reg.LoadCSRFile(req.Name, req.Path)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		var full *QueueFullError
		if errors.As(err, &full) {
			// Structured overload body: which class shed the job and how
			// full its queue was, so clients can back off per class.
			writeJSON(w, http.StatusTooManyRequests, shedBody{
				Error:    err.Error(),
				Class:    full.Class,
				Queued:   full.Queued,
				QueueCap: full.QueueCap,
			})
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	wait := false
	if v := r.URL.Query().Get("wait"); v != "" {
		// ?wait=1 blocks; explicit false values (0, false) do not.
		b, err := strconv.ParseBool(v)
		wait = err != nil || b
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		writeError(w, http.StatusRequestTimeout, "client went away while waiting for %s", job.ID)
		return
	}
	s.writeResult(w, job)
}

// writeResult emits a completed job's canonical result bytes verbatim
// (they are the cache value and the determinism contract; re-encoding
// would forfeit byte-identity).
func (s *Server) writeResult(w http.ResponseWriter, job *Job) {
	data, cacheHit, errMsg, ok := job.Result()
	if !ok {
		writeError(w, http.StatusConflict, "job %s not finished", job.ID)
		return
	}
	if st := job.Status(); st.State == JobShed {
		// The job was admitted but never ran: deadline expired in the
		// queue, or the server shut down. 503 tells the caller the system
		// shed it under load, as opposed to a 500 execution failure.
		writeJSON(w, http.StatusServiceUnavailable, shedBody{
			Error:      fmt.Sprintf("job %s shed: %s", job.ID, errMsg),
			Class:      st.Class,
			ShedReason: st.ShedReason,
		})
		return
	}
	if errMsg != "" {
		code := http.StatusInternalServerError
		if job.rejected() {
			// Refused by validation at execution time: the same answer the
			// same request would get at submit against this graph state.
			code = http.StatusBadRequest
		}
		writeError(w, code, "job %s failed: %s", job.ID, errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Job-Id", job.ID)
	if cacheHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.writeResult(w, j)
}

// jobTrace decodes a finished job's trace, mapping the job states to the
// HTTP codes shared by both trace endpoints. Only the trace field is
// decoded — a stored Result is dominated by its |V|-sized output arrays
// (dist, rank, ...), which the trace endpoints never serve.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request, wait bool) ([]engine.RoundStat, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil, false
	}
	if wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return nil, false
		}
	}
	data, _, errMsg, done := j.Result()
	if !done {
		writeError(w, http.StatusConflict, "job %s not finished", j.ID)
		return nil, false
	}
	if errMsg != "" {
		writeError(w, http.StatusInternalServerError, "job %s failed: %s", j.ID, errMsg)
		return nil, false
	}
	var res struct {
		Trace []engine.RoundStat `json:"trace"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		writeError(w, http.StatusInternalServerError, "decoding stored result: %v", err)
		return nil, false
	}
	return res.Trace, true
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	trace, ok := s.jobTrace(w, r, false)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, trace)
}

// handleJobTraceStream streams the per-round trace as NDJSON, one
// engine.RoundStat per line, flushing between rounds so clients can render
// round-by-round progressions incrementally. It waits for the job to
// finish first (kernels run to completion inside one scheduler slot).
func (s *Server) handleJobTraceStream(w http.ResponseWriter, r *http.Request) {
	trace, ok := s.jobTrace(w, r, true)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for i := range trace {
		line, err := json.Marshal(&trace[i])
		if err != nil {
			return
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
