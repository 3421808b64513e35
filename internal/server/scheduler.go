package server

import (
	"container/heap"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmemgraph/internal/stats"
)

// JobState is the lifecycle of one submitted kernel execution.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
	// JobShed is the terminal state of an admitted job that never ran: its
	// deadline expired while it queued, or the scheduler closed. Shed jobs
	// release their waiters exactly like done/failed ones — a ?wait=1
	// caller gets a structured 503, never a hang.
	JobShed JobState = "shed"
)

// Shed reasons recorded on JobStatus.ShedReason.
const (
	ShedDeadline = "deadline"
	ShedClosed   = "closed"
)

// Built-in job class names (any set of classes can be configured; these
// are the defaults the serving config and the load generator use).
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// ErrQueueFull is the sentinel Submit wraps in a QueueFullError when a
// class queue is at capacity; the HTTP layer maps it to 429 so overload
// sheds load instead of building an unbounded backlog.
var ErrQueueFull = errors.New("server: job queue full")

// QueueFullError is the structured form of ErrQueueFull: which class
// rejected the job and how full it was. errors.Is(err, ErrQueueFull)
// matches it.
type QueueFullError struct {
	Class    string
	Queued   int
	QueueCap int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("server: %s queue full (%d/%d)", e.Class, e.Queued, e.QueueCap)
}

func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// ErrUnknownClass is returned by Submit for a class name the scheduler was
// not configured with.
var ErrUnknownClass = errors.New("server: unknown job class")

// errSchedulerClosed is returned by Submit after Close.
var errSchedulerClosed = errors.New("server: scheduler closed")

// ClassConfig describes one admission class: its own bounded queue and its
// share of the drain.
type ClassConfig struct {
	Name string `json:"name"`
	// Weight is the class's drain share: while several classes are
	// backlogged, each gets Weight dequeues out of every sum-of-weights.
	// The starvation bound follows directly: a backlogged class waits at
	// most (sum of the other classes' weights) dequeues before its next
	// one (0 = 1).
	Weight int `json:"weight"`
	// QueueCap bounds this class's pending queue; submissions past it get
	// a QueueFullError (0 = DefaultQueueCap).
	QueueCap int `json:"queue_cap"`
}

// DefaultClasses is the serving default: interactive traffic drains 4x
// ahead of batch, batch gets the deeper queue.
func DefaultClasses() []ClassConfig {
	return []ClassConfig{
		{Name: ClassInteractive, Weight: 4, QueueCap: 256},
		{Name: ClassBatch, Weight: 1, QueueCap: 512},
	}
}

// ParseClasses parses a -classes flag value: comma-separated
// name[:weight[:queuecap]] entries, e.g. "interactive:4:256,batch:1:512".
func ParseClasses(spec string) ([]ClassConfig, error) {
	var classes []ClassConfig
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 3 || parts[0] == "" {
			return nil, fmt.Errorf("server: malformed class %q (want name[:weight[:queuecap]])", entry)
		}
		if seen[parts[0]] {
			return nil, fmt.Errorf("server: duplicate class %q", parts[0])
		}
		seen[parts[0]] = true
		cc := ClassConfig{Name: parts[0]}
		if len(parts) > 1 {
			w, err := strconv.Atoi(parts[1])
			if err != nil || w < 1 {
				return nil, fmt.Errorf("server: class %q: weight %q must be a positive integer", parts[0], parts[1])
			}
			cc.Weight = w
		}
		if len(parts) > 2 {
			c, err := strconv.Atoi(parts[2])
			if err != nil || c < 1 {
				return nil, fmt.Errorf("server: class %q: queue cap %q must be a positive integer", parts[0], parts[2])
			}
			cc.QueueCap = c
		}
		classes = append(classes, cc)
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("server: no classes in %q", spec)
	}
	return classes, nil
}

// Job is one kernel execution moving through the scheduler. Result bytes
// are the canonical analytics.MarshalResult serialization; identical
// requests therefore produce identical Result bytes whether they ran or
// hit the cache.
type Job struct {
	ID    string     `json:"id"`
	Class string     `json:"class"`
	Req   JobRequest `json:"request"`

	// seq orders jobs within a class (FIFO among equal deadlines);
	// deadline is absolute (zero = none). Both are written once at Submit.
	seq      uint64
	deadline time.Time

	mu         sync.Mutex
	state      JobState
	cacheHit   bool
	errMsg     string
	invalid    bool // the failure was an execution-time validation refusal (invalidRequest)
	shedReason string
	result     []byte
	submitted  time.Time
	started    time.Time
	finished   time.Time

	// done is closed once the job reaches JobDone, JobFailed or JobShed;
	// result and errMsg are written before the close, so waiters that
	// receive from done read them race-free.
	done chan struct{}
}

// JobStatus is the JSON view of a job's current state.
type JobStatus struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Class    string     `json:"class"`
	Request  JobRequest `json:"request"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Error    string     `json:"error,omitempty"`
	// ShedReason says why a shed job never ran: "deadline" or "closed".
	ShedReason string `json:"shed_reason,omitempty"`
	// QueueSeconds and RunSeconds are host wall times (not simulated
	// time; the simulated duration lives inside the result). A shed job
	// reports its whole queued life as QueueSeconds and no RunSeconds.
	QueueSeconds float64 `json:"queue_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, State: j.state, Class: j.Class, Request: j.Req,
		CacheHit: j.cacheHit, Error: j.errMsg, ShedReason: j.shedReason}
	if !j.started.IsZero() {
		st.QueueSeconds = j.started.Sub(j.submitted).Seconds()
		if !j.finished.IsZero() {
			st.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	} else if !j.finished.IsZero() {
		// Shed before running: the whole lifetime was queue wait.
		st.QueueSeconds = j.finished.Sub(j.submitted).Seconds()
	}
	return st
}

// Done returns the channel closed on completion.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the canonical result bytes, whether the job hit the
// cache, and the failure/shed message otherwise. ok is false until the job
// reaches a terminal state (done, failed or shed).
func (j *Job) Result() (data []byte, cacheHit bool, errMsg string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone && j.state != JobFailed && j.state != JobShed {
		return nil, false, "", false
	}
	return j.result, j.cacheHit, j.errMsg, true
}

// rejected reports whether the job failed because validation refused it at
// execution time, as opposed to a kernel error.
func (j *Job) rejected() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.invalid
}

// complete records the outcome and releases waiters.
func (j *Job) complete(result []byte, cacheHit bool, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
		j.invalid = errors.As(err, new(invalidRequest))
	} else {
		j.state = JobDone
		j.result = result
		j.cacheHit = cacheHit
	}
	j.mu.Unlock()
	close(j.done)
}

// shed marks an admitted-but-never-run job terminal and releases waiters.
func (j *Job) shed(reason, msg string) {
	j.mu.Lock()
	j.finished = time.Now()
	j.state = JobShed
	j.shedReason = reason
	j.errMsg = msg
	j.mu.Unlock()
	close(j.done)
}

// jobHeap orders a class queue: earliest absolute deadline first (no
// deadline sorts last), submission order among equals. The head is always
// the most urgent admitted job, which is what makes early shedding of
// already-doomed work possible — doomed jobs surface at the head instead
// of rotting mid-queue.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	switch {
	case di.IsZero() != dj.IsZero():
		return !di.IsZero() // deadlined jobs ahead of undeadlined ones
	case !di.IsZero() && !di.Equal(dj):
		return di.Before(dj)
	default:
		return h[i].seq < h[j].seq
	}
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// classQueue is one admission class's runtime state. All fields are
// guarded by the scheduler mutex.
type classQueue struct {
	cfg    ClassConfig
	credit int
	jobs   jobHeap

	admitted     uint64
	completed    uint64
	failed       uint64
	rejected     uint64 // queue-full at Submit
	deadlineShed uint64 // doomed at dequeue
	closedShed   uint64 // queued at Close
	queueWait    stats.Histogram
	service      stats.Histogram
}

// ClassStats is one class's slice of SchedulerStats.
type ClassStats struct {
	Class        string `json:"class"`
	Weight       int    `json:"weight"`
	QueueCap     int    `json:"queue_cap"`
	Queued       int    `json:"queued"`
	Admitted     uint64 `json:"admitted"`
	Completed    uint64 `json:"completed"`
	Failed       uint64 `json:"failed,omitempty"`
	Rejected     uint64 `json:"rejected,omitempty"`
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
	ClosedShed   uint64 `json:"closed_shed,omitempty"`
	// QueueWait and Service are host wall-time histograms: how long this
	// class's jobs sat admitted before a worker picked them, and how long
	// their kernel executions took.
	QueueWait stats.Summary `json:"queue_wait"`
	Service   stats.Summary `json:"service"`
}

// SchedulerStats reports scheduler load and the concurrency bound audit
// trail: MaxRunning can never exceed Workers because only the fixed worker
// goroutines execute jobs, and the conformance suite asserts it. The
// top-level counters aggregate across classes; Classes carries the
// per-class admission/shed/latency detail.
type SchedulerStats struct {
	Workers    int          `json:"workers"`
	QueueCap   int          `json:"queue_cap"` // sum of class caps
	Queued     int          `json:"queued"`
	Running    int64        `json:"running"`
	MaxRunning int64        `json:"max_running"`
	Completed  uint64       `json:"completed"`
	Failed     uint64       `json:"failed"`
	Rejected   uint64       `json:"rejected"`
	Shed       uint64       `json:"shed"`
	Classes    []ClassStats `json:"classes"`
}

// execFunc runs one job to completion, returning the canonical result
// bytes and whether they came from the cache.
type execFunc func(j *Job) (result []byte, cacheHit bool, err error)

// Scheduler bounds kernel concurrency with a fixed worker pool draining
// per-class bounded priority queues. The concurrency bound is structural —
// jobs only ever run on the worker goroutines — so no admission race can
// exceed it. Draining is weighted round-robin over backlogged classes
// (credits equal to each class's weight, replenished when no backlogged
// class has any left), deadline-first within a class, with already-doomed
// jobs shed at dequeue instead of executed.
type Scheduler struct {
	exec    execFunc
	workers int

	mu      sync.Mutex
	cond    *sync.Cond
	classes []*classQueue // configured order, the WRR scan order
	byName  map[string]*classQueue
	pending int
	closed  bool
	nextID  uint64
	nextSeq uint64

	wg      sync.WaitGroup
	running atomic.Int64
	maxRun  atomic.Int64
}

// Defaults applied when the config leaves them 0.
const (
	DefaultWorkers  = 4
	DefaultQueueCap = 256
)

// NewScheduler starts a single-class FIFO scheduler — the pre-class shape:
// one bounded queue named "default", no weights, no deadlines unless
// requests carry them. Production serving uses NewClassScheduler.
func NewScheduler(workers, queueCap int, exec execFunc) *Scheduler {
	return NewClassScheduler(workers, []ClassConfig{{Name: "default", Weight: 1, QueueCap: queueCap}}, exec)
}

// NewClassScheduler starts workers goroutines draining the configured
// classes (nil picks DefaultClasses). Class names must be unique; zero
// weights and caps pick 1 and DefaultQueueCap.
func NewClassScheduler(workers int, classes []ClassConfig, exec execFunc) *Scheduler {
	if workers <= 0 {
		workers = DefaultWorkers
	}
	if len(classes) == 0 {
		classes = DefaultClasses()
	}
	s := &Scheduler{exec: exec, workers: workers, byName: make(map[string]*classQueue)}
	s.cond = sync.NewCond(&s.mu)
	for _, cc := range classes {
		if cc.Weight <= 0 {
			cc.Weight = 1
		}
		if cc.QueueCap <= 0 {
			cc.QueueCap = DefaultQueueCap
		}
		if cc.Name == "" || s.byName[cc.Name] != nil {
			panic(fmt.Sprintf("server: duplicate or empty class name %q", cc.Name))
		}
		cq := &classQueue{cfg: cc, credit: cc.Weight}
		s.classes = append(s.classes, cq)
		s.byName[cc.Name] = cq
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// HasClass reports whether name is a configured class ("" always resolves
// to the first class).
func (s *Scheduler) HasClass(name string) bool {
	return name == "" || s.byName[name] != nil
}

// ClassNames returns the configured class names in drain-scan order.
func (s *Scheduler) ClassNames() []string {
	names := make([]string, len(s.classes))
	for i, cq := range s.classes {
		names[i] = cq.cfg.Name
	}
	return names
}

// dequeueLocked picks the next job by weighted round-robin: the first
// backlogged class (in configured order) holding credit wins; when no
// backlogged class has credit left, every class's credit resets to its
// weight. While a set of classes stays backlogged this yields each class
// exactly its weight out of every sum-of-weights dequeues, which is the
// documented starvation bound. Returns nil when nothing is pending.
func (s *Scheduler) dequeueLocked() (*Job, *classQueue) {
	for {
		var pick *classQueue
		backlogged := false
		for _, cq := range s.classes {
			if cq.jobs.Len() == 0 {
				continue
			}
			backlogged = true
			if cq.credit > 0 {
				pick = cq
				break
			}
		}
		if pick == nil {
			if !backlogged {
				return nil, nil
			}
			for _, cq := range s.classes {
				cq.credit = cq.cfg.Weight
			}
			continue
		}
		job := heap.Pop(&pick.jobs).(*Job)
		pick.credit -= jobWidth(job)
		return job, pick
	}
}

// jobWidth is the drain credit one dequeue costs its class: a sharded job
// fans out over N simulated shard workers inside its slot, so the weighted
// round-robin charges it N credits — a class burning wide jobs yields
// proportionally more turns to its peers before the next credit reset,
// keeping the starvation bound in units of simulated capacity rather than
// job count.
func jobWidth(j *Job) int {
	if j.Req.Shards > 1 {
		return j.Req.Shards
	}
	return 1
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.pending == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.pending == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		job, cq := s.dequeueLocked()
		s.pending--
		now := time.Now()
		wait := now.Sub(job.submitted)
		cq.queueWait.Observe(wait.Seconds())
		if !job.deadline.IsZero() && now.After(job.deadline) {
			// Already doomed: the deadline passed while it queued. Shed it
			// without running — executing it would burn a worker slot on a
			// result its submitter already gave up on.
			cq.deadlineShed++
			s.mu.Unlock()
			job.shed(ShedDeadline, fmt.Sprintf("deadline exceeded before execution (queued %.3fs)", wait.Seconds()))
			continue
		}
		s.mu.Unlock()

		n := s.running.Add(1)
		for {
			max := s.maxRun.Load()
			if n <= max || s.maxRun.CompareAndSwap(max, n) {
				break
			}
		}
		start := time.Now()
		job.mu.Lock()
		job.state = JobRunning
		job.started = start
		job.mu.Unlock()

		result, cacheHit, err := s.exec(job)
		job.complete(result, cacheHit, err)
		s.running.Add(-1)

		s.mu.Lock()
		cq.service.Observe(time.Since(start).Seconds())
		if err != nil {
			cq.failed++
		} else {
			cq.completed++
		}
		s.mu.Unlock()
	}
}

// Submit enqueues req into its class queue and returns the tracking job,
// or an error without enqueueing: QueueFullError past the class cap,
// ErrUnknownClass for an unconfigured class, errSchedulerClosed after
// Close. A positive DeadlineMS stamps an absolute deadline; the class
// queue drains deadline-first and sheds jobs whose deadline expires before
// a worker reaches them.
func (s *Scheduler) Submit(req JobRequest) (*Job, error) {
	if req.DeadlineMS < 0 {
		return nil, fmt.Errorf("server: negative deadline %dms", req.DeadlineMS)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSchedulerClosed
	}
	cq := s.classes[0]
	if req.Class != "" {
		var ok bool
		if cq, ok = s.byName[req.Class]; !ok {
			return nil, fmt.Errorf("%w: %q (have %s)", ErrUnknownClass, req.Class, strings.Join(s.ClassNames(), ", "))
		}
	}
	if cq.jobs.Len() >= cq.cfg.QueueCap {
		cq.rejected++
		return nil, &QueueFullError{Class: cq.cfg.Name, Queued: cq.jobs.Len(), QueueCap: cq.cfg.QueueCap}
	}
	s.nextID++
	s.nextSeq++
	now := time.Now()
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.nextID),
		Class:     cq.cfg.Name,
		Req:       req,
		seq:       s.nextSeq,
		state:     JobQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
	if req.DeadlineMS > 0 {
		job.deadline = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	heap.Push(&cq.jobs, job)
	cq.admitted++
	s.pending++
	s.cond.Signal()
	return job, nil
}

// Close stops accepting jobs, sheds everything still queued (each shed job
// lands in the terminal JobShed state, so ?wait=1 callers are released
// with a structured error instead of hanging), and waits for the running
// jobs to finish.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var shed []*Job
	for _, cq := range s.classes {
		for cq.jobs.Len() > 0 {
			job := heap.Pop(&cq.jobs).(*Job)
			cq.closedShed++
			cq.queueWait.Observe(time.Since(job.submitted).Seconds())
			shed = append(shed, job)
		}
	}
	s.pending = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, job := range shed {
		job.shed(ShedClosed, "scheduler closed before execution")
	}
	s.wg.Wait()
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedulerStats{
		Workers:    s.workers,
		Running:    s.running.Load(),
		MaxRunning: s.maxRun.Load(),
	}
	for _, cq := range s.classes {
		cs := ClassStats{
			Class:        cq.cfg.Name,
			Weight:       cq.cfg.Weight,
			QueueCap:     cq.cfg.QueueCap,
			Queued:       cq.jobs.Len(),
			Admitted:     cq.admitted,
			Completed:    cq.completed,
			Failed:       cq.failed,
			Rejected:     cq.rejected,
			DeadlineShed: cq.deadlineShed,
			ClosedShed:   cq.closedShed,
			QueueWait:    cq.queueWait.Summarize(),
			Service:      cq.service.Summarize(),
		}
		st.QueueCap += cs.QueueCap
		st.Queued += cs.Queued
		st.Completed += cs.Completed
		st.Failed += cs.Failed
		st.Rejected += cs.Rejected
		st.Shed += cs.DeadlineShed + cs.ClosedShed
		st.Classes = append(st.Classes, cs)
	}
	return st
}
