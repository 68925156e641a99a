// Package serv turns the batch Monte-Carlo engine into a long-running
// HTTP service: clients submit sim protocols as jobs into a persistent
// queue that runs them in submission (Seq) order, a worker pool executes
// them with per-job checkpoint journals (so a crashed or drained server
// resumes exactly where it stopped, bit-identically), clients poll the job
// document for progress, and an admin surface lists, cancels, resumes and
// observes jobs. cmd/accuserv is the binary wrapping this package.
//
// Durability model: the job documents (state, seq, attempts) and the
// per-job sim.CellJournal both live under one data directory. Every
// completed (network, run) cell is journaled before it counts, so the
// kill-anywhere guarantee of the PR-4 checkpoint machinery extends to the
// whole service — a SIGKILL mid-cell costs at most that cell's partial
// work, never correctness: the resumed job's record set (and therefore
// its result digest) is bit-identical to an uninterrupted run.
package serv

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/accu-sim/accu/internal/obs"
)

// Service errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrDuplicateJob rejects a submit reusing an existing job ID.
	ErrDuplicateJob = errors.New("serv: duplicate job id")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("serv: job not found")
	// ErrConflict reports an operation invalid in the job's state
	// (cancel a finished job, resume a running one, ...).
	ErrConflict = errors.New("serv: operation conflicts with job state")
	// ErrDraining rejects submits while the server shuts down.
	ErrDraining = errors.New("serv: server draining")
)

// Cancellation causes, distinguished via context.Cause so the runner can
// tell a client cancel (job → cancelled) from a drain preemption (job →
// queued, resumed by the next process).
var (
	errCancelJob = errors.New("serv: job cancelled by client")
	errDrainJob  = errors.New("serv: job preempted by drain")
)

// Config sizes the service.
type Config struct {
	// Dir is the persistent data directory (job documents and cell
	// journals).
	Dir string
	// Workers is the number of concurrent job executions (not to be
	// confused with Spec.Workers, the engine pool inside one job).
	// 0 means 1: jobs run strictly one at a time.
	Workers int
	// DefaultMaxAttempts is the per-job attempt budget when a submit
	// does not set one; 0 means 1 (no automatic retry).
	DefaultMaxAttempts int
	// Logf, when non-nil, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// servMetrics are the server-scoped instruments (per-job engine metrics
// live in each job's own registry, surfaced via /metrics prefixed with
// "job.<id>.").
type servMetrics struct {
	submitted  *obs.Counter
	completed  *obs.Counter
	failed     *obs.Counter
	cancelled  *obs.Counter
	retried    *obs.Counter
	resumed    *obs.Counter
	requeued   *obs.Counter
	dupRejects *obs.Counter
	queued     *obs.Gauge
	running    *obs.Gauge
	jobNS      *obs.Histogram
}

func newServMetrics(reg *obs.Registry) servMetrics {
	return servMetrics{
		submitted:  reg.Counter("serv.jobs_submitted"),
		completed:  reg.Counter("serv.jobs_completed"),
		failed:     reg.Counter("serv.jobs_failed"),
		cancelled:  reg.Counter("serv.jobs_cancelled"),
		retried:    reg.Counter("serv.jobs_retried"),
		resumed:    reg.Counter("serv.jobs_resumed"),
		requeued:   reg.Counter("serv.jobs_requeued"),
		dupRejects: reg.Counter("serv.duplicate_rejections"),
		queued:     reg.Gauge("serv.jobs_queued"),
		running:    reg.Gauge("serv.jobs_running"),
		jobNS:      reg.Histogram("serv.job_ns"),
	}
}

// Server is the job-queue service. Create with New, start the worker
// pool with Start, wire Handler into an http.Server, and stop with
// Drain.
type Server struct {
	cfg   Config
	store *store
	reg   *obs.Registry
	m     servMetrics

	// mu is held across saveJob on every state transition:
	// durability-before-signal — a job document reaches disk before the
	// new state is visible to waiters, the queue or the runners.
	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*entry
	// queue holds the queued entries sorted by Seq; claim pops the front.
	queue        []*entry
	runningCount int
	seq          int64
	draining     bool

	workersWG sync.WaitGroup

	// execute runs one claimed job and returns its result; swapped by
	// lifecycle tests to script outcomes without real simulations. The
	// default is (*Server).executeJob.
	execute func(ctx context.Context, e *entry) (*Result, error)
}

// New opens (or creates) the data directory, loads every persisted job
// and requeues the ones a previous process left queued or running —
// running jobs are the crash case and resume from their checkpoints
// without consuming an attempt.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.DefaultMaxAttempts <= 0 {
		cfg.DefaultMaxAttempts = 1
	}
	st, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		store: st,
		reg:   obs.New(),
		jobs:  make(map[string]*entry),
	}
	s.cond = sync.NewCond(&s.mu)
	s.m = newServMetrics(s.reg)
	s.execute = s.executeJob

	jobs, err := st.loadJobs()
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		j := jobs[i]
		e := &entry{job: j}
		if j.State == StateRunning {
			// Crash recovery: the previous process died mid-run. The cell
			// journal holds the completed cells; requeue without burning
			// an attempt.
			e.job.State = StateQueued
			if e.job.Attempt > 0 {
				e.job.Attempt--
			}
			if err := st.saveJob(&e.job); err != nil {
				return nil, err
			}
			s.m.requeued.Inc()
			s.logf("job %s: recovered running job, requeued (attempt %d/%d)",
				j.ID, e.job.Attempt, e.job.MaxAttempts)
		}
		s.jobs[j.ID] = e
		if e.job.State == StateQueued {
			s.enqueueLocked(e)
		}
		if j.Seq >= s.seq {
			s.seq = j.Seq + 1
		}
	}
	s.updateGauges()
	return s, nil
}

// Registry exposes the server-scoped metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the worker pool. Call once.
func (s *Server) Start() {
	s.workersWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.workerLoop()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// updateGauges refreshes the queue-depth gauges; callers hold s.mu.
func (s *Server) updateGauges() {
	s.m.queued.Set(float64(len(s.queue)))
	s.m.running.Set(float64(s.runningCount))
}

// SubmitRequest is the POST /api/v1/jobs payload.
//
//accu:wire
type SubmitRequest struct {
	// ID, when set, names the job (lowercase [a-z0-9_], ≤ 64 chars); a
	// resubmission of an existing ID is rejected with ErrDuplicateJob,
	// which is the idempotency handle. Empty auto-assigns "j<seq>".
	ID string `json:"id,omitempty"`
	// MaxAttempts bounds automatic retries of failed executions; 0 uses
	// the server default.
	MaxAttempts int  `json:"maxAttempts,omitempty"`
	Spec        Spec `json:"spec"`
}

// Submit validates and enqueues a job, returning its document.
func (s *Server) Submit(req SubmitRequest) (Job, error) {
	if req.ID != "" && !ValidJobID(req.ID) {
		return Job{}, fmt.Errorf("serv: invalid job id %q (want lowercase [a-z0-9_], max 64 chars)", req.ID)
	}
	if err := req.Spec.Validate(); err != nil {
		return Job{}, err
	}
	maxAttempts := req.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = s.cfg.DefaultMaxAttempts
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return Job{}, ErrDraining
	}
	id := req.ID
	if id == "" {
		id = fmt.Sprintf("j%06d", s.seq)
	}
	if _, ok := s.jobs[id]; ok {
		s.m.dupRejects.Inc()
		return Job{}, fmt.Errorf("%w: %s", ErrDuplicateJob, id)
	}
	e := &entry{
		job: Job{
			ID:          id,
			Seq:         s.seq,
			Spec:        req.Spec,
			State:       StateQueued,
			MaxAttempts: maxAttempts,
			SubmittedAt: time.Now().UTC(),
			Progress:    Progress{Total: req.Spec.Cells()},
		},
	}
	if err := s.store.saveJob(&e.job); err != nil {
		return Job{}, err
	}
	s.seq++
	s.jobs[id] = e
	s.enqueueLocked(e)
	s.m.submitted.Inc()
	s.updateGauges()
	s.cond.Signal()
	s.logf("job %s: submitted (%d cells)", id, e.job.Progress.Total)
	return e.job, nil
}

// enqueueLocked inserts e into the queue at its Seq position, so a
// retried, drained, resumed or recovered job keeps its submission-order
// place. Callers hold s.mu.
func (s *Server) enqueueLocked(e *entry) {
	i, _ := slices.BinarySearchFunc(s.queue, e.job.Seq, func(q *entry, seq int64) int {
		return cmp.Compare(q.job.Seq, seq)
	})
	s.queue = slices.Insert(s.queue, i, e)
}

// Get returns a job's document; running jobs carry live progress.
func (s *Server) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.view(e), nil
}

// List returns every job (optionally filtered by state) in submission
// order.
func (s *Server) List(state State) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, e := range s.jobs {
		if state != "" && e.job.State != state {
			continue
		}
		out = append(out, s.view(e))
	}
	slices.SortFunc(out, func(a, b Job) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// view snapshots a job document with live progress; callers hold s.mu.
func (s *Server) view(e *entry) Job {
	j := e.job // value copy; Result pointer shared but immutable once set
	if j.State == StateRunning {
		j.Progress.Done = e.done.Load()
		j.Progress.Resumed = e.resumed.Load()
	}
	return j
}

// Cancel stops a job: a queued job is cancelled immediately, a running
// one is interrupted (its cancellation is observed asynchronously; the
// checkpoint keeps its completed cells for a later Resume). Terminal jobs
// conflict.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	switch e.job.State {
	case StateQueued:
		i := slices.Index(s.queue, e)
		s.queue = slices.Delete(s.queue, i, i+1)
		s.finishLocked(e, StateCancelled, "cancelled by client")
		job := s.view(e)
		s.mu.Unlock()
		return job, nil
	case StateRunning:
		e.cancel(errCancelJob)
		job := s.view(e)
		s.mu.Unlock()
		return job, nil
	default:
		job := s.view(e)
		s.mu.Unlock()
		return job, fmt.Errorf("%w: job %s is %s", ErrConflict, id, job.State)
	}
}

// Resume requeues a failed or cancelled job with a fresh attempt budget;
// its checkpoint journal is picked up where it left off.
func (s *Server) Resume(id string) (Job, error) {
	s.mu.Lock()
	e, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if st := e.job.State; st != StateFailed && st != StateCancelled {
		job := s.view(e)
		s.mu.Unlock()
		return job, fmt.Errorf("%w: job %s is %s, resume applies to failed or cancelled jobs", ErrConflict, id, st)
	}
	if s.draining {
		s.mu.Unlock()
		return Job{}, ErrDraining
	}
	e.job.State = StateQueued
	e.job.Attempt = 0
	e.job.Error = ""
	e.job.FinishedAt = nil
	if err := s.store.saveJob(&e.job); err != nil {
		s.mu.Unlock()
		return Job{}, err
	}
	s.enqueueLocked(e)
	s.m.resumed.Inc()
	s.updateGauges()
	s.cond.Signal()
	job := s.view(e)
	s.mu.Unlock()
	s.logf("job %s: resumed from checkpoint", id)
	return job, nil
}

// Metrics returns the merged observability snapshot: server-scoped
// instruments plus every job's registry prefixed "job.<id>.". With a
// non-empty jobID only that job's registry is returned (unprefixed).
func (s *Server) Metrics(jobID string) (*obs.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jobID != "" {
		e, ok := s.jobs[jobID]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, jobID)
		}
		if e.reg == nil {
			return &obs.Snapshot{}, nil
		}
		return e.reg.Snapshot(), nil
	}
	snap := s.reg.Snapshot()
	for id, e := range s.jobs {
		if e.reg == nil {
			continue
		}
		snap = snap.Merge(e.reg.Snapshot().Prefixed("job." + id + "."))
	}
	return snap, nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the worker pool: no new claims, running jobs
// are preempted (they checkpoint at cell granularity and requeue without
// consuming an attempt). It returns when the pool has stopped or ctx
// expires. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, e := range s.jobs {
			if e.job.State == StateRunning && e.cancel != nil {
				e.cancel(errDrainJob)
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	stopped := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// workerLoop claims and executes jobs until drain.
func (s *Server) workerLoop() {
	defer s.workersWG.Done()
	for {
		e, ctx, cancel := s.claim()
		if e == nil {
			return
		}
		s.runJob(e, ctx, cancel)
	}
}

// claim blocks until a job is available (or drain begins) and moves the
// lowest-Seq queued job to running.
func (s *Server) claim() (*entry, context.Context, context.CancelCauseFunc) {
	s.mu.Lock()
	for !s.draining && len(s.queue) == 0 {
		s.cond.Wait()
	}
	if s.draining {
		s.mu.Unlock()
		return nil, nil, nil
	}
	e := s.queue[0]
	s.queue = slices.Delete(s.queue, 0, 1)
	ctx, cancel := context.WithCancelCause(context.Background())
	e.cancel = cancel
	e.job.State = StateRunning
	e.job.Attempt++
	now := time.Now().UTC()
	e.job.StartedAt = &now
	e.job.Error = ""
	e.reg = obs.New() // fresh per attempt: /metrics reflects the live run
	e.done.Store(0)
	e.resumed.Store(0)
	s.runningCount++
	if err := s.store.saveJob(&e.job); err != nil {
		// Log and run the job anyway: the document on disk still says
		// queued, which is what a crash would leave behind too, so the
		// next process requeues it from its checkpoint either way.
		s.logf("job %s: persist claim: %v", e.job.ID, err)
	}
	s.updateGauges()
	job := e.job
	s.mu.Unlock()
	s.logf("job %s: claimed (attempt %d/%d)", job.ID, job.Attempt, job.MaxAttempts)
	return e, ctx, cancel
}

// runJob executes one claimed job and applies the outcome transition.
func (s *Server) runJob(e *entry, ctx context.Context, cancel context.CancelCauseFunc) {
	span := obs.StartSpan(s.m.jobNS)
	res, err := s.execute(ctx, e)
	span.End()
	cause := context.Cause(ctx)
	cancel(nil) // release the context's resources; cause is already set

	s.mu.Lock()
	e.cancel = nil
	s.runningCount--
	e.job.Progress.Done = e.done.Load()
	e.job.Progress.Resumed = e.resumed.Load()
	switch {
	case err == nil:
		e.job.Result = res
		s.finishLocked(e, StateDone, "")
	case errors.Is(cause, errCancelJob):
		s.finishLocked(e, StateCancelled, "cancelled by client")
	case errors.Is(cause, errDrainJob):
		// Preempted, not failed: requeue for the next process without
		// consuming an attempt. The checkpoint holds the completed cells.
		e.job.State = StateQueued
		e.job.Attempt--
		e.job.StartedAt = nil
		if perr := s.store.saveJob(&e.job); perr != nil {
			s.logf("job %s: persist requeue: %v", e.job.ID, perr)
		}
		s.enqueueLocked(e)
		s.m.requeued.Inc()
		s.logf("job %s: drained, requeued", e.job.ID)
	case e.job.Attempt < e.job.MaxAttempts:
		e.job.State = StateQueued
		e.job.Error = err.Error()
		if perr := s.store.saveJob(&e.job); perr != nil {
			s.logf("job %s: persist retry: %v", e.job.ID, perr)
		}
		s.enqueueLocked(e)
		s.m.retried.Inc()
		s.cond.Signal()
		s.logf("job %s: attempt %d/%d failed, retrying: %v", e.job.ID, e.job.Attempt, e.job.MaxAttempts, err)
	default:
		s.finishLocked(e, StateFailed, err.Error())
	}
	s.updateGauges()
	s.mu.Unlock()
}

// finishLocked applies a terminal transition: persist, count and log.
// Callers hold s.mu.
func (s *Server) finishLocked(e *entry, st State, errMsg string) {
	e.job.State = st
	e.job.Error = errMsg
	now := time.Now().UTC()
	e.job.FinishedAt = &now
	if err := s.store.saveJob(&e.job); err != nil {
		s.logf("job %s: persist %s: %v", e.job.ID, st, err)
	}
	switch st {
	case StateDone:
		s.m.completed.Inc()
	case StateFailed:
		s.m.failed.Inc()
	case StateCancelled:
		s.m.cancelled.Inc()
	}
	s.logf("job %s: %s%s", e.job.ID, st, errSuffix(errMsg))
}

// errSuffix formats an optional error for a log line.
func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}
