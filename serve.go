package cohesion

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"cohesion/internal/serve"
	"cohesion/internal/snapshot"
)

// JobSpec is the wire form of one service job (see internal/serve).
type JobSpec = serve.JobSpec

// JobView is a job's status snapshot.
type JobView = serve.JobView

// JobOutcome is a finished job's client-visible result.
type JobOutcome = serve.Outcome

// Job lifecycle states.
const (
	JobQueued   = serve.StateQueued
	JobRunning  = serve.StateRunning
	JobDone     = serve.StateDone
	JobCanceled = serve.StateCanceled
	JobFailed   = serve.StateFailed
)

// Admission errors surfaced by JobServer.Submit.
var (
	ErrServerSaturated = serve.ErrSaturated
	ErrServerDraining  = serve.ErrDraining
)

// ServeOptions configures a job service.
type ServeOptions struct {
	// Addr is the listen address for Serve ("127.0.0.1:0" picks a port).
	Addr string

	// StateDir holds job records and run checkpoints; a server restarted
	// on the same directory resumes its unfinished jobs bit-identically.
	StateDir string

	// Workers bounds concurrent simulations (0 = GOMAXPROCS); QueueDepth
	// bounds admitted-but-unstarted jobs beyond them (0 = 16). A full
	// queue sheds load with 429 + Retry-After.
	Workers    int
	QueueDepth int

	// CheckpointEvery is the crash-safe snapshot interval in executed
	// events for every job (0 = 25000).
	CheckpointEvery uint64

	// MaxJobLimits are server-wide ceilings clamped onto every job's
	// requested budgets (zero fields impose nothing).
	MaxJobLimits RunLimits

	// RetryAfter is the advisory backoff returned with 429s (0 = 1s).
	RetryAfter time.Duration

	// DrainTimeout bounds the graceful drain on shutdown (0 = 30s).
	DrainTimeout time.Duration

	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// JobServer is the production front door over the simulator: an
// HTTP/JSON job service with admission control, per-job budgets,
// crash-safe persistence, and Prometheus metrics. Construct with
// NewJobServer; the full listen/drain lifecycle is Serve.
type JobServer struct {
	srv *serve.Server
	opt ServeOptions
}

// NewJobServer builds a job server, recovering any unfinished jobs
// persisted in opt.StateDir by a previous process.
func NewJobServer(opt ServeOptions) (*JobServer, error) {
	if opt.DrainTimeout <= 0 {
		opt.DrainTimeout = 30 * time.Second
	}
	s, err := serve.New(jobEngine{}, serve.Options{
		StateDir:        opt.StateDir,
		Workers:         opt.Workers,
		QueueDepth:      opt.QueueDepth,
		CheckpointEvery: opt.CheckpointEvery,
		MaxJobLimits:    opt.MaxJobLimits,
		RetryAfter:      opt.RetryAfter,
		Logf:            opt.Logf,
	})
	if err != nil {
		return nil, err
	}
	return &JobServer{srv: s, opt: opt}, nil
}

// Handler returns the HTTP API (see internal/serve for the routes).
func (js *JobServer) Handler() http.Handler { return js.srv.Handler() }

// Submit validates and admits one job programmatically, returning its ID.
func (js *JobServer) Submit(spec JobSpec) (string, error) { return js.srv.Submit(spec) }

// Job returns one job's status snapshot.
func (js *JobServer) Job(id string) (JobView, bool) { return js.srv.Job(id) }

// Jobs lists every job in submission order.
func (js *JobServer) Jobs() []JobView { return js.srv.Jobs() }

// Cancel cancels a job (queued: immediately; running: cooperatively).
func (js *JobServer) Cancel(id string) (JobView, bool) { return js.srv.Cancel(id) }

// Drain gracefully stops the server: intake closes, running jobs
// checkpoint and stop, queued jobs stay persisted for the next start.
func (js *JobServer) Drain(ctx context.Context) error { return js.srv.Drain(ctx) }

// Serve runs the full service lifecycle: listen on opt.Addr, serve the
// job API, and on ctx cancellation (SIGTERM in cohesion-serve) drain
// gracefully — running jobs write a final checkpoint and everything
// unfinished resumes on the next start. It returns once the drain and
// listener shutdown complete.
func Serve(ctx context.Context, opt ServeOptions) error {
	js, err := NewJobServer(opt)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		return err
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("listening on %s", ln.Addr())

	hsrv := &http.Server{Handler: js.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hsrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	logf("draining (timeout %v)", opt.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.DrainTimeout)
	defer cancel()
	drainErr := js.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = hsrv.Shutdown(shutCtx)
	if drainErr != nil {
		return drainErr
	}
	logf("drained cleanly")
	return nil
}

// jobEngine implements serve.Engine over the checkpointing facade: every
// job runs with crash-safe snapshots, and a recovered job resumes from
// its last checkpoint through the verified-replay path.
type jobEngine struct{}

func (jobEngine) Execute(ctx context.Context, spec JobSpec, ckptPath string, ckptEvery uint64, lim RunLimits, resume bool) (*JobOutcome, bool, error) {
	if resume {
		res, info, err := ResumeRun(ctx, ckptPath, ResumeOptions{Every: ckptEvery, Limits: lim})
		switch {
		case err == nil:
			return outcomeOf(res, nil), true, nil
		case errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted):
			return outcomeOf(res, err), true, err
		case errors.Is(err, snapshot.ErrDiverged):
			// A divergent resume must fail loudly, never silently re-run:
			// it means the snapshot and the replay disagree about history.
			return nil, true, err
		case info == nil:
			// No usable snapshot (killed before the first checkpoint, both
			// files torn, or one that predates digest-only checkpoints): a
			// fresh deterministic run is bit-identical anyway.
		default:
			// Snapshot loaded but the resume was rejected (e.g. the job's
			// own event budget ends at or before the snapshot point). A
			// fresh deterministic run reproduces the same end state.
		}
	}
	rc, err := specRunConfig(spec)
	if err != nil {
		return nil, false, err
	}
	rc.Limits = lim
	res, err := RunWithCheckpoints(ctx, rc, CheckpointConfig{Path: ckptPath, Every: ckptEvery})
	if err != nil {
		return outcomeOf(res, err), false, err
	}
	return outcomeOf(res, nil), false, nil
}

// specRunConfig maps a validated job spec onto a RunConfig.
func specRunConfig(spec JobSpec) (RunConfig, error) {
	spec = spec.Normalized()
	mode, ok := serve.ParseMode(spec.Mode)
	if !ok {
		return RunConfig{}, fmt.Errorf("cohesion: unknown mode %q", spec.Mode)
	}
	return RunConfig{
		Machine: ScaledConfig(spec.Clusters).WithMode(mode),
		Kernel:  spec.Kernel,
		Scale:   spec.Scale,
		Seed:    spec.Seed,
		Workers: spec.Workers,
		Verify:  spec.Verify,
	}, nil
}

// outcomeOf packages a (possibly partial) Result for the wire.
func outcomeOf(res *Result, stopErr error) *JobOutcome {
	if res == nil {
		return nil
	}
	out := &JobOutcome{
		MemFingerprint: fmt.Sprintf("%#016x", res.MemFingerprint),
		StatsDigest:    fmt.Sprintf("%#016x", res.Stats.Digest()),
		Cycles:         res.Stats.Cycles,
		Events:         res.Stats.Events,
		Instructions:   res.Stats.Instructions,
		MessagesTotal:  res.TotalMessages(),
	}
	if stopErr != nil {
		out.Partial = true
		out.StopReason = firstLine(stopErr.Error())
	}
	return out
}

// firstLine truncates an error to its first line (the diagnostic body
// can be pages long; the wire wants the headline).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const max = 240
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}
