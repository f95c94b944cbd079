package stress

import (
	"context"
	"runtime/debug"

	"cohesion/internal/addr"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/machine"
	"cohesion/internal/msg"
	"cohesion/internal/region"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
	"cohesion/internal/trace"
)

// maxCycles bounds a stress run; legitimate programs finish far earlier,
// and wedges are caught by the watchdog long before this.
const maxCycles = 500_000_000

// BuildMachine constructs the pressure machine for a stress config: a
// deliberately small L2 (constant evictions and recalls) and a small
// sparse directory, with the online oracle always attached.
func BuildMachine(cfg Config) (*machine.Machine, error) {
	mc := config.Scaled(cfg.Clusters).WithMode(cfg.mode())
	if cfg.mode() != config.SWcc {
		entries, assoc := 256, 8
		if cfg.DirEntries > 0 {
			entries = cfg.DirEntries
		}
		if cfg.DirAssoc > 0 {
			assoc = cfg.DirAssoc
		}
		kind := config.DirSparse
		switch cfg.Dir {
		case "dir4b":
			kind = config.DirLimited4B
		case "infinite":
			kind = config.DirInfinite
		}
		mc = mc.WithDirectory(kind, entries, assoc)
		mc.DirNackOnCapacity = cfg.NackOnCapacity
	}
	mc.L2Size = 1 << 10 // 32 lines: fuzz lines collide and evict constantly
	mc.L2Assoc = 4
	if cfg.MSHRs > 0 {
		mc.L2MSHRs = cfg.MSHRs
	}
	mc.OracleEnabled = true
	mc.TraceRingSize = cfg.TraceRing
	if cfg.Faults {
		mc.Faults = config.DefaultFaultPlan(cfg.FaultSeed)
	}
	mc.Label = "stress-" + cfg.Mode
	return machine.New(mc)
}

// Result is one stress run's outcome. Err is nil for a clean run; Cycles
// and Fingerprint are the determinism witnesses (two runs of the same
// Program must agree bit-for-bit).
type Result struct {
	Err         error
	Cycles      uint64
	Events      uint64 // executed events (set on every path, failures included)
	Fingerprint uint64
	Checks      uint64 // oracle invariant evaluations
	Trace       []stats.TraceEntry
}

// RunOpts attaches observability consumers and lifecycle controls to a
// stress run.
type RunOpts struct {
	// Coverage, when non-nil, records which protocol-transition edges the
	// run exercised (shared trackers aggregate across a batch).
	Coverage *trace.Coverage
	// Sink, when non-nil, streams every protocol event for export.
	Sink *trace.Sink
	// Metrics enables the sim-time histogram registry.
	Metrics bool
	// Ctx, when non-nil, cancels the run cooperatively at the event-loop
	// boundary (the run ends with simerr.ErrCanceled).
	Ctx context.Context
	// Limits bounds the run (max events / sim-cycles deterministically,
	// wall clock and memory best-effort); the run ends with
	// simerr.ErrBudgetExhausted when one trips.
	Limits runctl.Limits
	// CheckpointAt adds one-shot deterministic checkpoint firing points
	// (executed-event counts) on top of Limits.CheckpointAt.
	CheckpointAt []uint64
	// OnCheckpoint, when non-nil, runs between events at every checkpoint
	// point with the quiescent machine; returning an error aborts the run.
	OnCheckpoint func(events, cycle uint64, m *machine.Machine) error
}

// RunProgram executes a stress program to completion or first failure
// (oracle violation, deadlock, retry exhaustion, quiescence invariant).
func RunProgram(p Program) Result { return RunProgramOpts(p, RunOpts{}) }

// RunProgramOpts is RunProgram with observability consumers and lifecycle
// controls attached. A panic anywhere inside the simulation is contained:
// it comes back as a Result whose Err matches simerr.ErrRunPanicked (with
// the stack in the error text), so a fuzz batch survives a crashing input
// and can write a repro for it instead of killing the process.
func RunProgramOpts(p Program, opts RunOpts) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = simerr.Panicked(r, debug.Stack())
		}
	}()
	cfg := p.Cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{Err: err}
	}
	m, err := BuildMachine(cfg)
	if err != nil {
		return Result{Err: err}
	}
	m.Run.Coverage = opts.Coverage
	m.Run.Sink = opts.Sink
	if opts.Metrics {
		m.Run.Metrics = stats.NewMetrics()
	}
	if cfg.mode() == config.Cohesion {
		// Odd-indexed lines (the private corruption line included, when
		// odd) start in the SWcc domain, matching LineAddr's split.
		for i := 1; i <= cfg.Lines; i += 2 {
			m.PresetSWcc(addr.Range{Base: cfg.LineAddr(i), Size: addr.LineBytes})
		}
	}
	banks := m.Cfg.L3Banks
	for ci := range p.Cores {
		ops := p.Cores[ci].Ops
		core := (ci/cfg.WorkersPerCluster)*m.Cfg.CoresPerCluster + ci%cfg.WorkersPerCluster
		m.StartProgram(core, func(c *cluster.Core) {
			c.SetCode(addr.CodeBase, 256)
			for _, op := range ops {
				execOp(m, c, cfg, banks, op)
			}
		})
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	limits := opts.Limits
	if len(opts.CheckpointAt) > 0 {
		limits.CheckpointAt = append(append([]uint64(nil), limits.CheckpointAt...), opts.CheckpointAt...)
	}
	if opts.OnCheckpoint != nil {
		m.SetCheckpointFunc(func(events, cycle uint64) error {
			return opts.OnCheckpoint(events, cycle, m)
		})
	}
	err = m.SimulateCtx(ctx, maxCycles, limits)
	if err == nil {
		err = m.CheckInvariants()
	}
	if err == nil {
		m.DrainToMemory()
		res.Fingerprint = m.Store.Fingerprint()
		res.Cycles = m.Run.Cycles
	} else {
		res.Cycles = uint64(m.Q.Now())
	}
	res.Events = m.Q.Fired()
	res.Err = err
	if m.Run.Trace != nil {
		res.Trace = m.Run.Trace.Records()
	}
	if o := m.Oracle(); o != nil {
		res.Checks = o.Checks
	}
	return res
}

var atomicOps = []msg.AtomicOp{msg.AtomicAdd, msg.AtomicOr, msg.AtomicXchg}

// execOp performs one schedule step on a core. The corrupt op runs
// host-side — the machine is paused between Do calls — and models a
// protocol corrupting memory behind the oracle's back.
func execOp(m *machine.Machine, c *cluster.Core, cfg Config, banks int, op Op) {
	a := cfg.LineAddr(op.Line) + addr.Addr(op.Word*addr.WordBytes)
	switch op.Kind {
	case OpLoad:
		c.Do(cluster.Op{Kind: cluster.OpLoad, Addr: a})
	case OpStore:
		c.Do(cluster.Op{Kind: cluster.OpStore, Addr: a, Value: op.Value})
	case OpAtomic:
		c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: a, AOp: atomicOps[op.Value%3], Value: op.Value})
	case OpUncLoad:
		c.Do(cluster.Op{Kind: cluster.OpUncLoad, Addr: a})
	case OpUncStore:
		c.Do(cluster.Op{Kind: cluster.OpUncStore, Addr: a, Value: op.Value})
	case OpFlush:
		c.Do(cluster.Op{Kind: cluster.OpFlush, Addr: a})
	case OpInv:
		c.Do(cluster.Op{Kind: cluster.OpInv, Addr: a})
	case OpToSW, OpToHW:
		wa := region.TblWordAddr(a, banks)
		bit := uint32(1) << region.TblBitIndex(a)
		if op.Kind == OpToSW {
			c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: wa, AOp: msg.AtomicOr, Value: bit})
		} else {
			c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: wa, AOp: msg.AtomicAnd, Value: ^bit})
		}
	case OpWork:
		c.Do(cluster.Op{Kind: cluster.OpWork, Cycles: int64(op.Value)})
	case OpCorrupt:
		m.Store.WriteWord(a, op.Value)
	}
}
