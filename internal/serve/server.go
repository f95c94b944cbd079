package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cohesion/internal/pool"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle states. queued → running → {done, canceled, failed}.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateCanceled State = "canceled"
	StateFailed   State = "failed"
)

// Terminal reports whether a job in this state can never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCanceled || s == StateFailed
}

// Outcome is the client-visible result of a finished (or partially
// finished) job. Fingerprint and digest are hex strings: uint64 values
// above 2^53 do not survive JSON number decoding in most clients.
type Outcome struct {
	MemFingerprint string `json:"mem_fingerprint"`
	StatsDigest    string `json:"stats_digest"`
	Cycles         uint64 `json:"cycles"`
	Events         uint64 `json:"events"`
	Instructions   uint64 `json:"instructions"`
	MessagesTotal  uint64 `json:"messages_total"`

	// Partial marks an outcome captured at an early stop (cancellation or
	// budget); StopReason carries the trigger.
	Partial    bool   `json:"partial,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// Engine executes one job. The root cohesion package implements it over
// RunWithCheckpoints/ResumeRun; unit tests fake it.
type Engine interface {
	// Execute runs spec under lim, writing crash-safe checkpoints to
	// ckptPath every ckptEvery events. When resume is true and ckptPath
	// holds a usable snapshot, the engine continues from it instead of
	// starting over — bit-identical either way, by the verified-replay
	// contract. The bool reports whether a snapshot was actually used.
	// Canceled and budget-ended jobs return a partial Outcome alongside
	// the sentinel error.
	Execute(ctx context.Context, spec JobSpec, ckptPath string, ckptEvery uint64, lim runctl.Limits, resume bool) (*Outcome, bool, error)
}

// Options configures a Server. The zero value of each field selects the
// documented default.
type Options struct {
	StateDir        string        // job records + run checkpoints (required)
	Workers         int           // concurrent simulations; 0 = GOMAXPROCS
	QueueDepth      int           // admission queue beyond the workers; 0 = 16
	CheckpointEvery uint64        // events between run checkpoints; 0 = 25000
	MaxJobLimits    runctl.Limits // server-wide ceilings clamped onto every job
	RetryAfter      time.Duration // advisory Retry-After on 429; 0 = 1s
	Logf            func(format string, args ...any)
}

// Errors the admission path distinguishes; the HTTP layer maps them to
// 429 and 503.
var (
	ErrSaturated = errors.New("serve: queue full")
	ErrDraining  = errors.New("serve: server is draining")
)

// Job is the server's record of one submission and, serialized, its
// persisted record: everything the next process needs to report the
// job's history and decide whether to re-run it. Records ride the
// snapshot envelope (KindJob), so every write is atomic (temp + fsync +
// rename) and every read is checksummed — a SIGKILL mid-write leaves the
// previous revision readable. Fields are guarded by the server mutex;
// status responses get a JobView copy.
type Job struct {
	JobView

	// Revision counts persisted writes of this record; it is the envelope
	// Seq, so LoadRecover adopts the newest of a torn pair.
	Revision uint64 `json:"revision"`

	cancel         context.CancelFunc
	clientCanceled bool
}

// JobView is an immutable snapshot of a job for status responses.
type JobView struct {
	ID          string   `json:"id"`
	Spec        JobSpec  `json:"spec"`
	State       State    `json:"state"`
	Resumed     bool     `json:"resumed,omitempty"` // recovered from a previous process's state dir
	Outcome     *Outcome `json:"outcome,omitempty"`
	Error       string   `json:"error,omitempty"`
	SubmittedMS int64    `json:"submitted_ms"`
	StartedMS   int64    `json:"started_ms,omitempty"`
	EndedMS     int64    `json:"ended_ms,omitempty"`
}

// Server is the job service: admission, a bounded worker pool, job
// state, persistence, and metrics. Construct with New, serve HTTP via
// Handler, stop with Drain.
type Server struct {
	opt Options
	eng Engine

	ctx    context.Context // base context every job context derives from
	cancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID uint64

	runner   *pool.Runner[string]
	draining bool
	metrics  *Metrics
	started  time.Time
}

// New builds a server over eng: it creates the state directory, recovers
// every persisted job (re-queuing the ones a previous process left
// queued or running), and starts the worker pool.
func New(eng Engine, opt Options) (*Server, error) {
	if opt.StateDir == "" {
		return nil, fmt.Errorf("serve: Options.StateDir is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = pool.Workers(0)
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 16
	}
	if opt.CheckpointEvery == 0 {
		opt.CheckpointEvery = 25_000
	}
	if opt.RetryAfter <= 0 {
		opt.RetryAfter = time.Second
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	for _, dir := range []string{jobsDir(opt.StateDir), ckptDir(opt.StateDir)} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		eng:     eng,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    map[string]*Job{},
		metrics: newMetrics(),
		started: time.Now(),
	}
	recovered, err := s.recoverJobs()
	if err != nil {
		cancel()
		return nil, err
	}
	s.runner = pool.NewRunner(opt.Workers, opt.QueueDepth+len(recovered), s.execute)
	for _, id := range recovered {
		if !s.runner.TrySubmit(id) {
			// Cannot happen: the queue was sized to hold every recovered
			// job; fail loudly rather than silently stranding one.
			cancel()
			return nil, fmt.Errorf("serve: recovered job %s did not fit the queue", id)
		}
	}
	if n := len(recovered); n > 0 {
		opt.Logf("recovered %d unfinished job(s) from %s", n, opt.StateDir)
	}
	return s, nil
}

// recoverJobs loads every persisted job record and returns the IDs to
// re-enqueue (previous-process queued and running jobs), in ID order so
// recovery is deterministic.
func (s *Server) recoverJobs() ([]string, error) {
	recs, err := loadAllRecords(s.opt.StateDir)
	if err != nil {
		return nil, err
	}
	var requeue []string
	for _, j := range recs {
		switch j.State {
		case StateQueued:
			requeue = append(requeue, j.ID)
		case StateRunning:
			// The previous process died mid-run; its checkpoint (if any)
			// lets the engine resume instead of replaying from scratch.
			j.State = StateQueued
			j.Resumed = true
			requeue = append(requeue, j.ID)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if n := idNumber(j.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		s.metrics.recovered(j)
	}
	sort.Strings(requeue)
	sort.Strings(s.order)
	return requeue, nil
}

// Submit validates and admits one job. It returns ErrSaturated when the
// queue is full (the HTTP layer's 429) and ErrDraining after Drain began.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	spec = spec.Normalized()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", ErrDraining
	}
	id := fmt.Sprintf("j-%06d", s.nextID)
	s.nextID++
	j := &Job{JobView: JobView{ID: id, Spec: spec, State: StateQueued, SubmittedMS: nowMS()}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	rec := j.record()
	s.mu.Unlock()

	// Persist before enqueuing: once a worker can see the job, a SIGKILL
	// at any instant must leave a record to recover it from.
	if err := saveRecord(s.opt.StateDir, rec); err != nil {
		s.forget(id)
		return "", err
	}
	if !s.runner.TrySubmit(id) {
		s.forget(id)
		_ = removeRecord(s.opt.StateDir, id)
		s.metrics.rejected()
		return "", ErrSaturated
	}
	s.metrics.submitted()
	return id, nil
}

// forget removes a job that never became visible to a client.
func (s *Server) forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// execute runs one queued job to a terminal state. It is the worker-pool
// processing function; a panicking engine is contained here so one bad
// job cannot take the service down.
func (s *Server) execute(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State != StateQueued || s.draining {
		// Canceled while queued, or the server is draining: leave the
		// persisted record as-is (a draining server's queued jobs resume
		// on the next start).
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.StartedMS = nowMS()
	ctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	spec, resume := j.Spec, j.Resumed
	rec := j.record()
	s.mu.Unlock()
	defer cancel()

	// The on-disk record must say "running" before the run starts, so a
	// SIGKILL during the run is recovered as a resume.
	if err := saveRecord(s.opt.StateDir, rec); err != nil {
		s.finish(id, nil, fmt.Errorf("serve: persisting job record: %w", err))
		return
	}

	lim := runctl.Clamp(runctl.Limits{
		MaxEvents:  uint64(spec.MaxEvents),
		WallBudget: time.Duration(spec.MaxWallMS) * time.Millisecond,
	}, s.opt.MaxJobLimits)

	out, usedCkpt, err := func() (out *Outcome, usedCkpt bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: job %s panicked: %v\n%s", simerr.ErrRunPanicked, id, r, debug.Stack())
			}
		}()
		return s.eng.Execute(ctx, spec, ckptPath(s.opt.StateDir, id), s.opt.CheckpointEvery, lim, resume)
	}()
	if usedCkpt {
		s.metrics.resumed()
	}
	s.finish(id, out, err)
}

// finish moves a job to its terminal state, persists it, and updates the
// metrics. A cancellation caused by server drain (rather than a client
// DELETE) is *not* persisted: the on-disk record keeps saying "running"
// so the next process resumes the job from its last checkpoint.
func (s *Server) finish(id string, out *Outcome, err error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.EndedMS = nowMS()
	j.Outcome = out
	switch {
	case err == nil:
		j.State = StateDone
		j.Error = ""
	case errors.Is(err, simerr.ErrCanceled) && !j.clientCanceled:
		// Server-initiated stop (drain): the engine already wrote a final
		// checkpoint at the stop point. Leave the job recoverable.
		j.State = StateQueued
		j.Resumed = true
		j.Outcome = nil
		s.mu.Unlock()
		return
	case errors.Is(err, simerr.ErrCanceled):
		j.State = StateCanceled
		j.Error = err.Error()
	default:
		// Budget exhaustion, divergence, protocol failures, contained
		// panics: all terminal failures, with whatever partial outcome the
		// engine salvaged.
		j.State = StateFailed
		j.Error = err.Error()
	}
	rec := j.record()
	view := j.view()
	s.metrics.finished(view) // under s.mu: whoever sees the state sees the count
	s.mu.Unlock()

	if perr := saveRecord(s.opt.StateDir, rec); perr != nil {
		s.opt.Logf("job %s: persisting terminal record: %v", id, perr)
	}
	if view.State == StateDone {
		// The checkpoint has served its purpose; keep the state dir tidy.
		removeCheckpoint(s.opt.StateDir, id)
	}
	s.opt.Logf("job %s %s (%s/%s)", id, view.State, view.Spec.Kernel, view.Spec.Mode)
}

// Cancel cancels a job: a queued job is terminally canceled on the spot,
// a running one has its context canceled and reaches StateCanceled with
// a partial outcome when the event loop observes the cancellation. The
// returned view is the job's state at return time; ok is false for an
// unknown ID.
func (s *Server) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	j.clientCanceled = true
	switch j.State {
	case StateQueued:
		j.State = StateCanceled
		j.EndedMS = nowMS()
		j.Error = "canceled while queued"
		rec := j.record()
		view := j.view()
		s.metrics.finished(view)
		s.mu.Unlock()
		if err := saveRecord(s.opt.StateDir, rec); err != nil {
			s.opt.Logf("job %s: persisting cancel: %v", id, err)
		}
		removeCheckpoint(s.opt.StateDir, id)
		return view, true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	view := j.view()
	s.mu.Unlock()
	return view, true
}

// Job returns a snapshot of one job.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: intake closes (Submit returns
// ErrDraining, the HTTP layer 503s), running jobs are cooperatively
// canceled — each writes a final checkpoint at its stop point — and the
// worker pool is joined. Queued jobs are left persisted as queued; both
// they and the interrupted running jobs resume on the next start,
// bit-identically. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.cancel() // cascades to every running job's context

	done := make(chan struct{})
	go func() {
		s.runner.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// view copies the job for a status response, Outcome included, so the
// caller holds nothing the server mutex guards.
func (j *Job) view() JobView {
	v := j.JobView
	if v.Outcome != nil {
		out := *v.Outcome
		v.Outcome = &out
	}
	return v
}

// record bumps the job's revision and returns a copy to persist once the
// server mutex is released. Callers hold the server mutex.
func (j *Job) record() Job {
	j.Revision++
	return *j
}

func nowMS() int64 { return time.Now().UnixMilli() }

// idNumber extracts the numeric suffix of a job ID ("j-000042" → 42);
// 0 for malformed IDs.
func idNumber(id string) uint64 {
	var n uint64
	for i := len("j-"); i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint64(c-'0')
	}
	return n
}

func jobsDir(state string) string        { return filepath.Join(state, "jobs") }
func ckptDir(state string) string        { return filepath.Join(state, "ckpt") }
func ckptPath(state, id string) string   { return filepath.Join(ckptDir(state), id+".ckpt") }
func recordPath(state, id string) string { return filepath.Join(jobsDir(state), id+".job") }
