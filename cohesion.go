// Package cohesion is a from-scratch reproduction of "Cohesion: A Hybrid
// Memory Model for Accelerators" (Kelm et al., ISCA 2010): a deterministic
// discrete-event simulator of the paper's 1024-core cached accelerator, a
// directory-based MSI hardware coherence protocol (HWcc), the Task Centric
// software coherence protocol (SWcc), and the Cohesion hybrid layer that
// migrates cache lines between the two coherence domains at run time —
// plus the eight benchmark kernels and the harness that regenerates every
// table and figure of the paper's evaluation.
//
// The package is a facade over the internal packages:
//
//	Run(RunConfig{...})          // simulate one kernel on one machine
//	Fig2(...), Fig8(...), ...    // regenerate the paper's figures
//	Table3Config(), ScaledConfig // machine configurations
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results next to the paper's.
package cohesion

import (
	"context"
	"errors"
	"fmt"

	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/kernels"
	"cohesion/internal/machine"
	"cohesion/internal/msg"
	"cohesion/internal/rt"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
	"cohesion/internal/trace"
)

// Mode selects the memory model (the paper's design points).
type Mode = config.Mode

// Memory model constants.
const (
	SWcc     = config.SWcc
	HWcc     = config.HWcc
	Cohesion = config.Cohesion
)

// DirKind selects the directory organization.
type DirKind = config.DirKind

// Directory organization constants.
const (
	DirNone      = config.DirNone
	DirInfinite  = config.DirInfinite
	DirSparse    = config.DirSparse
	DirLimited4B = config.DirLimited4B
)

// MachineConfig describes the simulated processor (see Table3Config).
type MachineConfig = config.Machine

// Table3Config returns the paper's full 1024-core Table 3 machine.
func Table3Config() MachineConfig { return config.Table3() }

// ScaledConfig returns a machine with Table 3 per-cluster geometry but
// fewer clusters, for fast experimentation.
func ScaledConfig(clusters int) MachineConfig { return config.Scaled(clusters) }

// FaultPlan configures the deterministic fault-injection layer (message
// drops, duplicate deliveries, delay spikes, directory NACKs). Set it on
// MachineConfig.Faults.
type FaultPlan = config.FaultPlan

// DefaultFaultPlan returns a recovery-enabled plan with moderate fault
// rates, seeded deterministically.
func DefaultFaultPlan(seed int64) FaultPlan { return config.DefaultFaultPlan(seed) }

// Structured-error sentinels for abnormal simulation ends; match with
// errors.Is. The error text carries the full diagnostic (cycle, stuck
// lines, directory state).
var (
	ErrDeadlock          = simerr.ErrDeadlock
	ErrRetryExhausted    = simerr.ErrRetryExhausted
	ErrProtocolInvariant = simerr.ErrProtocolInvariant
	ErrConfig            = simerr.ErrConfig

	// ErrCanceled reports a run ended by cooperative cancellation (its
	// context was canceled, e.g. SIGINT on the CLIs). RunCtx returns a
	// partial Result alongside it.
	ErrCanceled = simerr.ErrCanceled

	// ErrBudgetExhausted reports a run ended by a RunLimits budget.
	// Event and sim-cycle budgets stop deterministically (same seed +
	// same budget ⇒ bit-identical partial Result); wall-clock and memory
	// budgets are tagged non-reproducible in the diagnostic.
	ErrBudgetExhausted = simerr.ErrBudgetExhausted

	// ErrRunPanicked reports a simulation that panicked and was
	// contained by a supervising layer (an experiment sweep cell, a fuzz
	// iteration) instead of killing the process.
	ErrRunPanicked = simerr.ErrRunPanicked
)

// RunLimits bounds one simulation: deterministic budgets (MaxEvents,
// MaxCycles) and non-deterministic ones (WallBudget, MemSoftBytes),
// checked at the event-loop boundary (amortized every CheckEvery events
// for the non-deterministic set). The zero value imposes nothing.
type RunLimits = runctl.Limits

// KernelNames lists the eight benchmark kernels (paper §4.1).
func KernelNames() []string { return kernels.Names() }

// Addr is a byte address in the machine's single 32-bit address space
// (returned by the runtime's allocators, accepted by every Ctx operation).
type Addr = addr.Addr

// LineBytes is the cache-line size (Table 3: 32 bytes).
const LineBytes = addr.LineBytes

// MsgKind classifies L2-output messages (the Figures 2/8 legend).
type MsgKind = msg.Kind

// Message classes.
const (
	MsgReadReq   = msg.ReadReq
	MsgWriteReq  = msg.WriteReq
	MsgInstrReq  = msg.InstrReq
	MsgAtomic    = msg.Atomic
	MsgEviction  = msg.Eviction
	MsgSWFlush   = msg.SWFlush
	MsgReadRel   = msg.ReadRel
	MsgProbeResp = msg.ProbeResp
)

// MsgKinds lists the message classes in figure-legend order.
func MsgKinds() []MsgKind { return msg.Kinds() }

// RunConfig describes one simulation.
type RunConfig struct {
	Machine MachineConfig
	Kernel  string
	Scale   int   // data-set scale; 1 is the smallest
	Seed    int64 // workload generator seed
	Workers int   // cores running the kernel; 0 = 4 per cluster
	Verify  bool  // check kernel output against the golden reference

	// MaxCycles bounds the simulation (0 = generous default). Exceeding
	// it is a failure (ErrCycleLimit) — it is the runaway guard, not a
	// budget; use Limits for structured early ends with partial results.
	MaxCycles uint64

	// Limits are the run-lifecycle budgets (max events, max sim-cycles,
	// wall clock, memory soft limit). A budget-ended run returns a
	// partial Result together with an ErrBudgetExhausted error.
	Limits RunLimits

	// TraceCapacity, when positive, retains the last N protocol events in
	// Result.Stats.Trace for post-mortem inspection.
	TraceCapacity int

	// TraceSink, when non-nil, receives every protocol event as a
	// structured record for Chrome-trace/text export (see NewTraceSink).
	TraceSink *TraceSink

	// Coverage, when non-nil, records which protocol-transition edges the
	// run exercised. A single tracker may be shared across many runs (marks
	// are atomic) to aggregate coverage over a batch.
	Coverage *Coverage

	// Metrics, when true, collects sim-time histograms (message latency by
	// class, port waits, queue depths, directory occupancy) in
	// Result.Stats.Metrics.
	Metrics bool
}

// Coverage tracks which protocol-transition edges simulations exercised;
// see internal/trace for the edge catalog (documented in PROTOCOL.md §7).
type Coverage = trace.Coverage

// NewCoverage returns an empty protocol-transition coverage tracker.
func NewCoverage() *Coverage { return trace.NewCoverage() }

// TraceSink is a bounded ring of structured protocol events with
// Chrome-trace-event and text exporters.
type TraceSink = trace.Sink

// NewTraceSink returns a sink retaining up to capacity events (<= 0 uses
// trace.DefaultSinkCapacity).
func NewTraceSink(capacity int) *TraceSink { return trace.NewSink(capacity) }

// ProtocolEdgeNames lists the registered protocol-transition edge names in
// registry order.
func ProtocolEdgeNames() []string { return trace.EdgeNames() }

// Result is one simulation's measurements.
type Result struct {
	Kernel string
	Mode   Mode
	Config MachineConfig
	Stats  stats.Run

	// MemFingerprint digests the final memory image (after the exit drain);
	// two runs with identical configuration, workload seed, and fault seed
	// produce identical fingerprints.
	MemFingerprint uint64
}

// Messages returns the count for one L2-output message class.
func (r *Result) Messages(k msg.Kind) uint64 { return r.Stats.Messages[k] }

// TotalMessages sums all L2-output message classes (the Figs 2/8 stack).
func (r *Result) TotalMessages() uint64 { return r.Stats.TotalMessages() }

// Cycles is the simulated run time.
func (r *Result) Cycles() uint64 { return r.Stats.Cycles }

// Run simulates one kernel on one machine configuration, verifying output
// and protocol invariants.
func Run(rc RunConfig) (*Result, error) {
	return RunCtx(context.Background(), rc)
}

// RunCtx is Run with cooperative cancellation: the simulation checks ctx
// at the event-loop boundary and ends early with ErrCanceled when it is
// canceled. For canceled and budget-ended runs RunCtx returns a non-nil
// partial Result together with the error: the stats, trace ring, and
// memory fingerprint reflect the machine at the stop point (the dirty
// cache state is drained to memory first). When the stop was a
// deterministic budget (RunLimits.MaxEvents or MaxCycles), that partial
// Result is bit-identical across runs with the same seed and budget.
func RunCtx(ctx context.Context, rc RunConfig) (*Result, error) {
	p, err := prepareRun(rc)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// Prepared is an assembled machine with its kernel spawned, stopped just
// before the first event — the construction half of Run split out so
// harnesses (the benchmark's sim workload, bench/) can time and meter the
// simulation separately from machine assembly and workload setup. A
// Prepared is single-use: Run consumes it.
type Prepared struct {
	p *preparedRun
}

// Prepare assembles the machine for rc, attaches observability, builds
// the kernel, and spawns the workers, without firing any event.
func Prepare(rc RunConfig) (*Prepared, error) {
	p, err := prepareRun(rc)
	if err != nil {
		return nil, err
	}
	return &Prepared{p: p}, nil
}

// Run simulates the prepared machine to its end. Cancellation and budget
// semantics match RunCtx.
func (p *Prepared) Run(ctx context.Context) (*Result, error) { return p.p.run(ctx) }

// Simulate runs the event loop to quiescence (or a budget stop /
// cancellation) without finalizing: no invariant sweep, no cache drain,
// no verification, no fingerprint. It exists so harnesses can time the
// O(events) simulation separately from the O(machine-state) epilogue —
// Finalize completes the run. Use Run unless you are measuring.
func (p *Prepared) Simulate(ctx context.Context) error { return p.p.simulate(ctx) }

// Finalize checks protocol invariants, drains surviving dirty cache
// state to memory, verifies the kernel output if the run asked for it,
// and packages the Result. It must follow a successful Simulate.
func (p *Prepared) Finalize() (*Result, error) { return p.p.finalize() }

// preparedRun is an assembled machine with its kernel spawned, ready to
// simulate. The checkpoint layer prepares runs separately from executing
// them so a resume can install its checkpoint callback in between.
type preparedRun struct {
	rc   RunConfig
	m    *machine.Machine
	r    *rt.Runtime
	inst *kernels.Instance
}

// prepareRun assembles the machine, attaches observability, builds the
// kernel, and spawns the workers — everything up to the first event.
func prepareRun(rc RunConfig) (*preparedRun, error) {
	if rc.Scale < 1 {
		rc.Scale = 1
	}
	m, err := machine.New(rc.Machine)
	if err != nil {
		return nil, err
	}
	if rc.TraceCapacity > 0 {
		m.EnableTrace(rc.TraceCapacity)
	}
	m.Run.Sink = rc.TraceSink
	m.Run.Coverage = rc.Coverage
	if rc.Metrics {
		m.Run.Metrics = stats.NewMetrics()
	}
	workers := rc.Workers
	if workers == 0 {
		workers = 4 * rc.Machine.Clusters
	}
	if workers > rc.Machine.Cores() {
		return nil, fmt.Errorf("cohesion: %d workers exceed %d cores", workers, rc.Machine.Cores())
	}
	r, err := rt.New(m, workers)
	if err != nil {
		return nil, err
	}
	inst, err := kernels.Build(rc.Kernel, r, kernels.Params{Scale: rc.Scale, Seed: rc.Seed})
	if err != nil {
		return nil, err
	}
	// Spread workers evenly across clusters.
	perCluster := (workers + rc.Machine.Clusters - 1) / rc.Machine.Clusters
	started := 0
	for cl := 0; cl < rc.Machine.Clusters && started < workers; cl++ {
		for i := 0; i < perCluster && started < workers; i++ {
			r.Spawn(cl*rc.Machine.CoresPerCluster+i, inst.CodeBytes, inst.Worker)
			started++
		}
	}
	return &preparedRun{rc: rc, m: m, r: r, inst: inst}, nil
}

// run simulates a prepared run to its end (quiescence, budget, or
// cancellation) and packages the Result.
func (p *preparedRun) run(ctx context.Context) (*Result, error) {
	rc, m := p.rc, p.m
	if err := m.SimulateCtx(ctx, rc.MaxCycles, rc.Limits); err != nil {
		wrapped := fmt.Errorf("cohesion: %s on %s: %w", rc.Kernel, rc.Machine.Label, err)
		if errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExhausted) {
			// Graceful early end: the machine is already shut down; drain
			// the surviving dirty cache state so the partial fingerprint
			// covers everything the run computed up to the stop point.
			m.DrainToMemory()
			return p.result(), wrapped
		}
		return nil, wrapped
	}
	return p.finalize()
}

// simulate runs the event loop alone — the O(events) phase.
func (p *preparedRun) simulate(ctx context.Context) error {
	rc := p.rc
	if err := p.m.SimulateCtx(ctx, rc.MaxCycles, rc.Limits); err != nil {
		return fmt.Errorf("cohesion: %s on %s: %w", rc.Kernel, rc.Machine.Label, err)
	}
	return nil
}

// finalize completes a successfully simulated run: the invariant sweep,
// the dirty-state drain, optional output verification, and the Result
// with its memory fingerprint — the O(machine-state) epilogue.
func (p *preparedRun) finalize() (*Result, error) {
	rc, m := p.rc, p.m
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("cohesion: %s: protocol invariant violated: %w", rc.Kernel, err)
	}
	m.DrainToMemory()
	if rc.Verify {
		if err := p.inst.Verify(p.r); err != nil {
			return nil, fmt.Errorf("cohesion: %w", err)
		}
	}
	return p.result(), nil
}

func (p *preparedRun) result() *Result {
	return &Result{
		Kernel:         p.rc.Kernel,
		Mode:           p.rc.Machine.Mode,
		Config:         p.rc.Machine,
		Stats:          *p.m.Run,
		MemFingerprint: p.m.Store.Fingerprint(),
	}
}
