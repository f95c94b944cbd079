// Package machine assembles the full simulated processor: clusters of
// cores, the two-level interconnect, the L3/directory home banks, the
// DRAM substrate, and — under Cohesion — the region tables. It owns the
// event queue, runs simulations to quiescence, and provides the
// end-of-run invariant checks the test suite leans on.
package machine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/core"
	"cohesion/internal/directory"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/fault"
	"cohesion/internal/interconnect"
	"cohesion/internal/msg"
	"cohesion/internal/oracle"
	"cohesion/internal/region"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
	"cohesion/internal/trace"
)

// Machine is one assembled processor plus its measurement state.
type Machine struct {
	Cfg      config.Machine
	Q        *event.Queue
	Run      *stats.Run
	Store    *dram.Store
	Mem      *dram.Controller
	Net      *interconnect.Network
	Homes    []*core.Home
	Clusters []*cluster.Cluster
	Coarse   *region.CoarseTable
	Fine     *region.FineTable

	faults *fault.Plan    // nil unless Cfg.Faults.Enabled
	oracle *oracle.Oracle // nil unless Cfg.OracleEnabled

	// Free lists for the pooled network-delivery records (see netReq /
	// netProbe); steady-state request and probe traffic recycles them
	// instead of allocating a closure per network hop.
	freeReq   *netReq
	freeProbe *netProbe

	activeCores  int
	started      int
	lastDone     event.Cycle // cycle when the final core's program completed
	lastProgress uint64      // watchdog: Run.ForwardProgress at the last check

	// stop, once set, ends the event loop after the current event: the
	// watchdog records its deadlock diagnostic here instead of panicking
	// through the event stack, and SimulateCtx returns it. The loop's
	// only steady-state cost is one nil compare per event.
	stop *simerr.Error

	// ckpt, when set via SetCheckpointFunc, is invoked between events
	// whenever the controller's deterministic checkpoint schedule comes
	// due, and once more before a lifecycle stop returns (while program
	// coroutines are still parked, before Shutdown).
	ckpt func(events, cycle uint64) error
}

// New builds a machine from a validated configuration.
func New(cfg config.Machine) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		Cfg:   cfg,
		Q:     &event.Queue{},
		Run:   &stats.Run{},
		Store: dram.NewStore(),
	}
	m.Mem = dram.NewController(m.Q, m.Run, cfg.DRAMChannels, cfg.L3Banks, cfg.DRAMLatency, cfg.DRAMCyclesPerLine)
	m.Net = interconnect.New(m.Q, cfg.Clusters, cfg.L3Banks, cfg.TreeLatency, cfg.XbarLatency)
	if cfg.NetJitter > 0 {
		m.Net.SetJitter(cfg.NetJitter, cfg.NetJitterSeed)
	}
	m.faults = fault.NewPlan(cfg.Faults, m.Run)
	if m.faults != nil {
		m.Net.SetDelayFunc(m.faults.DelaySpike)
	}

	if cfg.Mode == config.Cohesion {
		m.Fine = region.NewFineTable(m.Store, cfg.L3Banks)
		if cfg.CoarseTable {
			m.Coarse = &region.CoarseTable{}
		}
	}
	if cfg.OracleEnabled {
		m.oracle = oracle.New(cfg, m.Q, m.Store, m.Coarse, m.Fine)
	}

	for b := 0; b < cfg.L3Banks; b++ {
		var dir directory.Directory
		switch cfg.Directory {
		case config.DirNone:
		case config.DirInfinite:
			dir = directory.NewInfinite()
		case config.DirSparse:
			dir = directory.NewSparse(cfg.DirEntriesPerBank, cfg.DirAssoc, false)
		case config.DirLimited4B:
			dir = directory.NewSparse(cfg.DirEntriesPerBank, cfg.DirAssoc, true)
		}
		bank := b
		probe := func(cl int, p msg.Probe, onReply func(msg.ProbeReply)) {
			m.deliverProbe(bank, cl, p, onReply)
		}
		h := core.NewHome(bank, cfg, m.Q, m.Run, m.Store, m.Mem, dir, m.Coarse, m.Fine, probe, m.faults)
		if m.oracle != nil {
			h.SetOracle(m.oracle)
		}
		m.Homes = append(m.Homes, h)
	}

	for c := 0; c < cfg.Clusters; c++ {
		cl := cluster.New(c, cfg, m.Q, m.Run)
		clusterID := c
		cl.Wire(
			func(req msg.Req, onResp func(msg.Resp)) { m.deliverReq(clusterID, req, onResp) },
			func() {
				m.activeCores--
				if m.activeCores == 0 {
					m.lastDone = m.Q.Now()
				}
			},
		)
		if m.oracle != nil {
			cl.SetOracle(m.oracle)
		}
		m.Clusters = append(m.Clusters, cl)
	}
	return m, nil
}

// Oracle returns the online coherence oracle, or nil when disabled.
func (m *Machine) Oracle() *oracle.Oracle { return m.oracle }

// nop is the shared no-op completion for deliveries whose arrival needs
// no action (dropped requests occupy their links but never arrive).
func nop() {}

// netReq carries one request delivery across the interconnect and its
// response back, replacing the four closures the round trip used to
// allocate. Records are pooled on the machine: the continuation funcs are
// bound once per record and the per-delivery state (request, response,
// route) is rewritten on reuse. A record is freed when its response is
// delivered — or, for one-way traffic (evictions, releases), as soon as
// it arrives at the bank. The rare fault-injected duplicate delivery gets
// its own record; if the home dedups it without replying, that record is
// simply dropped to the garbage collector rather than returned.
type netReq struct {
	m         *Machine
	bank      int
	clusterID int
	req       msg.Req
	onResp    func(msg.Resp)
	resp      msg.Resp

	deliverFn     func()         // fires at the bank: hand to the home
	replyFn       func(msg.Resp) // home's reply: route the response back
	deliverRespFn func()         // fires at the cluster: complete onResp

	nextFree *netReq
}

func (m *Machine) allocNetReq() *netReq {
	r := m.freeReq
	if r == nil {
		r = &netReq{m: m}
		r.deliverFn = func() { r.deliver() }
		r.replyFn = func(resp msg.Resp) { r.reply(resp) }
		r.deliverRespFn = func() { r.deliverResp() }
		return r
	}
	m.freeReq = r.nextFree
	r.nextFree = nil
	return r
}

func (m *Machine) freeNetReq(r *netReq) {
	r.onResp = nil
	r.nextFree = m.freeReq
	m.freeReq = r
}

func (r *netReq) deliver() {
	if r.onResp == nil {
		// One-way message: free the record before handing off (HandleReq
		// stages its work, so nothing here runs under the home's lock-step).
		m, bank, req := r.m, r.bank, r.req
		m.freeNetReq(r)
		m.Homes[bank].HandleReq(req, nil)
		return
	}
	r.m.Homes[r.bank].HandleReq(r.req, r.replyFn)
}

func (r *netReq) reply(resp msg.Resp) {
	r.resp = resp
	r.m.Net.ToCluster(r.bank, r.clusterID, resp.Bytes(), r.deliverRespFn)
}

func (r *netReq) deliverResp() {
	// Free before completing: the continuation may synchronously issue a
	// follow-up request that reuses this record.
	onResp, resp := r.onResp, r.resp
	r.m.freeNetReq(r)
	onResp(resp)
}

// netProbe is netReq's analogue for directory probes (home → cluster →
// counted reply → home).
type netProbe struct {
	m         *Machine
	bank      int
	clusterID int
	p         msg.Probe
	onReply   func(msg.ProbeReply)
	rep       msg.ProbeReply

	deliverFn    func()               // fires at the cluster: HandleProbe
	replyFn      func(msg.ProbeReply) // cluster's reply: count + route back
	deliverRepFn func()               // fires at the bank: complete onReply

	nextFree *netProbe
}

func (m *Machine) allocNetProbe() *netProbe {
	pr := m.freeProbe
	if pr == nil {
		pr = &netProbe{m: m}
		pr.deliverFn = func() { pr.deliver() }
		pr.replyFn = func(rep msg.ProbeReply) { pr.reply(rep) }
		pr.deliverRepFn = func() { pr.deliverRep() }
		return pr
	}
	m.freeProbe = pr.nextFree
	pr.nextFree = nil
	return pr
}

func (m *Machine) freeNetProbe(pr *netProbe) {
	pr.onReply = nil
	pr.nextFree = m.freeProbe
	m.freeProbe = pr
}

func (pr *netProbe) deliver() {
	pr.m.Clusters[pr.clusterID].HandleProbe(pr.p, pr.replyFn)
}

func (pr *netProbe) reply(rep msg.ProbeReply) {
	pr.m.Run.CountMessage(msg.ProbeResp)
	pr.rep = rep
	pr.m.Net.ToBank(pr.clusterID, pr.bank, rep.Bytes(), pr.deliverRepFn)
}

func (pr *netProbe) deliverRep() {
	onReply, rep := pr.onReply, pr.rep
	pr.m.freeNetProbe(pr)
	onReply(rep)
}

// deliverReq routes an L2 request to its line's home bank over the network
// and routes the response back. When fault injection is enabled, retryable
// requests may be dropped (they occupy their links but never arrive) or
// delivered twice; the L2's retransmission and the home's dedup-by-ID
// absorb both.
func (m *Machine) deliverReq(clusterID int, req msg.Req, onResp func(msg.Resp)) {
	bank := region.HomeBankOfLine(req.Line, m.Cfg.L3Banks)
	if m.faults != nil && req.Kind.Retryable() && req.ID != 0 {
		switch m.faults.RequestVerdict() {
		case fault.Drop:
			m.Run.Step(trace.EdgeRecNetDrop, uint64(m.Q.Now()), "net", req.Line, clusterID)
			m.Net.ToBank(clusterID, bank, req.Bytes(), nop)
			return
		case fault.Duplicate:
			m.Run.Step(trace.EdgeRecNetDup, uint64(m.Q.Now()), "net", req.Line, clusterID)
			dup := m.allocNetReq()
			dup.bank, dup.clusterID, dup.req, dup.onResp = bank, clusterID, req, onResp
			m.Net.ToBank(clusterID, bank, req.Bytes(), dup.deliverFn)
		}
	}
	r := m.allocNetReq()
	r.bank, r.clusterID, r.req, r.onResp = bank, clusterID, req, onResp
	m.Net.ToBank(clusterID, bank, req.Bytes(), r.deliverFn)
}

// deliverProbe routes a directory probe to a cluster and its (counted)
// reply back to the home bank.
func (m *Machine) deliverProbe(bank, clusterID int, p msg.Probe, onReply func(msg.ProbeReply)) {
	pr := m.allocNetProbe()
	pr.bank, pr.clusterID, pr.p, pr.onReply = bank, clusterID, p, onReply
	m.Net.ToCluster(bank, clusterID, msg.CtrlBytes, pr.deliverFn)
}

// AddCoarseRegion registers a permanently software-coherent range in the
// on-die coarse-grain table (no-op outside Cohesion or when the coarse
// table is disabled).
func (m *Machine) AddCoarseRegion(r addr.Range) error {
	if m.Coarse == nil {
		return nil
	}
	return m.Coarse.Add(r)
}

// PresetSWcc marks a range's fine-grain table bits software-coherent
// before simulation starts (the runtime's load-time table initialization,
// paper §3.5 — performed by the bootstrap core before timing begins).
// Whole spans of the range are painted a table block at a time
// (region.FineTable.SetRange), each block holding one pattern word
// instead of its 512 words.
func (m *Machine) PresetSWcc(r addr.Range) {
	if m.Fine == nil {
		return
	}
	m.Fine.SetRange(r)
}

// StartProgram launches a workload program on a global core index.
func (m *Machine) StartProgram(coreID int, program func(*cluster.Core)) {
	cl := m.Clusters[coreID/m.Cfg.CoresPerCluster]
	m.activeCores++
	m.started++
	cl.StartCore(coreID%m.Cfg.CoresPerCluster, program)
}

// ErrCycleLimit reports a simulation that exceeded its cycle budget.
var ErrCycleLimit = errors.New("machine: cycle limit exceeded")

// defaultWatchdogCycles is the forward-progress window used when the
// configuration leaves WatchdogCycles at zero: far longer than any
// legitimate stall (a full recall chain is thousands of cycles), short
// enough that a wedged run fails promptly instead of spinning to the
// cycle limit.
const defaultWatchdogCycles = 4_000_000

// Simulate runs the event loop until every started program completes and
// all in-flight traffic drains, periodically sampling directory occupancy.
// maxCycles guards against livelock (0 means a generous default).
//
// Abnormal ends are structured diagnostics: a *simerr.Error wrapping
// ErrDeadlock (watchdog or drain-time wedge, with per-cluster and per-bank
// stuck-transaction reports), ErrRetryExhausted (an L2 gave up), or
// ErrProtocolInvariant (protocol code panicked with a diagnostic, which is
// recovered here and returned as an error).
func (m *Machine) Simulate(maxCycles uint64) error {
	return m.SimulateCtx(context.Background(), maxCycles, runctl.Limits{})
}

// SimulateCtx is Simulate with a run-lifecycle layer: cooperative
// cancellation through ctx and the resource budgets in lim, both checked
// at the event-loop boundary. Deterministic budgets (max events, max
// sim-cycles) are evaluated every event so a budget-stopped run ends at
// an exact, reproducible point; cancellation, wall-clock, and memory
// checks are amortized (lim.CheckEvery) so an unbudgeted run pays only a
// nil compare per event. Cancellation and budget ends return a
// *simerr.Error wrapping simerr.ErrCanceled or simerr.ErrBudgetExhausted
// whose detail carries the same stuck-style snapshot a deadlock gets
// (outstanding transactions, trace ring); the machine is shut down, its
// partial Run stats and memory image remain readable, and non-
// deterministic stops are tagged non-reproducible in the diagnostic.
func (m *Machine) SimulateCtx(ctx context.Context, maxCycles uint64, lim runctl.Limits) (err error) {
	// Registered first so it runs after the recover defer below has
	// settled err: an abnormal end leaves program coroutines parked in
	// Do, and Shutdown winds them down before Simulate returns.
	defer func() {
		m.Run.Events = m.Q.Fired()
		if err != nil {
			m.Shutdown()
		}
	}()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		se, ok := simerr.FromPanic(r)
		if !ok {
			panic(r) // foreign panic: a real bug, let it crash loudly
		}
		if se.Cycle == 0 {
			se.Cycle = uint64(m.Q.Now())
		}
		err = se
	}()
	if maxCycles == 0 {
		maxCycles = 2_000_000_000
	}
	ctl := runctl.New(ctx, lim)
	if m.hasDirectory() {
		m.scheduleSample()
	}
	if m.Cfg.WatchdogCycles >= 0 {
		window := event.Cycle(m.Cfg.WatchdogCycles)
		if window == 0 {
			window = defaultWatchdogCycles
		}
		m.lastProgress = m.Run.ForwardProgress
		m.scheduleWatchdog(window)
	}
	for m.Q.Step() {
		if m.stop != nil {
			return m.stop // watchdog-detected deadlock
		}
		if ctl != nil {
			if s := ctl.Check(m.Q.Fired(), uint64(m.Q.Now())); s != nil {
				if m.ckpt != nil {
					// Checkpoint-on-stop: capture the partial state before
					// abortError stamps the stats and before the deferred
					// Shutdown tears the core coroutines down, so the
					// snapshot is bit-identical to a periodic checkpoint at
					// the same event count. A failed write must not mask
					// the stop sentinel.
					if cerr := m.ckpt(m.Q.Fired(), uint64(m.Q.Now())); cerr != nil {
						return errors.Join(m.abortError(s), fmt.Errorf("machine: checkpoint at stop: %w", cerr))
					}
				}
				return m.abortError(s)
			}
			if m.ckpt != nil && ctl.CheckpointDue(m.Q.Fired()) {
				if cerr := m.ckpt(m.Q.Fired(), uint64(m.Q.Now())); cerr != nil {
					return fmt.Errorf("machine: checkpoint at event %d: %w", m.Q.Fired(), cerr)
				}
			}
		}
		// The limit guards against runaway runs; housekeeping stragglers
		// (the last watchdog or sampler event after completion) are benign.
		if uint64(m.Q.Now()) > maxCycles && m.outstandingWork() {
			return fmt.Errorf("%w at cycle %d (%d cores still active)", ErrCycleLimit, m.Q.Now(), m.activeCores)
		}
	}
	if m.outstandingWork() {
		return m.deadlockError("event queue drained with work outstanding")
	}
	// Report the cycle the last program completed; straggler events (the
	// occupancy sampler, in-flight writebacks) do not extend "run time".
	m.Run.Cycles = uint64(m.lastDone)
	m.Run.NetMessages = m.Net.MessagesUp + m.Net.MessagesDown
	m.Run.NetBytes = m.Net.BytesUp + m.Net.BytesDown
	return nil
}

// Shutdown winds down program coroutines left parked mid-operation by an
// aborted run. Simulate calls it on every abnormal-end path; it is
// idempotent and safe to call again from library users that abandon a
// machine without simulating it to quiescence.
func (m *Machine) Shutdown() {
	for _, cl := range m.Clusters {
		cl.Shutdown()
	}
}

// outstandingWork reports whether any program or protocol transaction is
// still unfinished.
func (m *Machine) outstandingWork() bool {
	if m.activeCores != 0 {
		return true
	}
	for _, h := range m.Homes {
		if h.Pending() {
			return true
		}
	}
	for _, cl := range m.Clusters {
		if cl.Pending() {
			return true
		}
	}
	return false
}

// scheduleWatchdog re-checks liveness every window cycles while work is
// outstanding, with two triggers. An L2 transaction outstanding longer
// than the window is a wedge even when other cores keep completing
// operations (spin-waiting pollers count as "progress" but heal
// nothing). A window with no completed operation at all catches stalls
// that never issued a transaction. Either way the run fails with a
// diagnostic naming the stuck transactions rather than hanging: the
// diagnostic is captured eagerly (so its snapshot reflects the cycle the
// watchdog fired) and reported through the same stop path cancellation
// uses — the event loop returns it after this event, with no panic
// unwinding through the event stack.
func (m *Machine) scheduleWatchdog(window event.Cycle) {
	m.Q.After(window, func() {
		if !m.outstandingWork() {
			return // idle: stop rescheduling so the queue can drain
		}
		now := m.Q.Now()
		for _, cl := range m.Clusters {
			if age, line, ok := cl.OldestTxn(now); ok && age > window {
				m.stop = m.deadlockError(fmt.Sprintf(
					"cl%d transaction for line %#x outstanding %d cycles (watchdog window %d)",
					cl.ID, uint64(line.Base()), age, window))
				return
			}
		}
		if m.Run.ForwardProgress == m.lastProgress {
			m.stop = m.deadlockError(fmt.Sprintf("no forward progress for %d cycles", window))
			return
		}
		m.lastProgress = m.Run.ForwardProgress
		m.scheduleWatchdog(window)
	})
}

// diagnostic builds the stuck-style snapshot shared by every early end:
// which clusters and home banks hold unfinished transactions (line,
// kind, age, directory state), plus the last trace.TailRecords records
// of the protocol trace ring when one is attached.
func (m *Machine) diagnostic(reason string) string {
	lines := m.inflightReport()
	if len(lines) == 0 {
		lines = append(lines, "no outstanding transactions recorded (cores wedged before issuing?)")
	}
	detail := fmt.Sprintf("%s; %d of %d started cores unfinished\n  %s",
		reason, m.activeCores, m.started, strings.Join(lines, "\n  "))
	if m.Run.Trace != nil && m.Run.Trace.Total() > 0 {
		var b strings.Builder
		m.Run.Trace.WriteTail(&b, trace.TailRecords)
		detail += "\n--- protocol trace (most recent last) ---\n" + b.String()
	}
	return detail
}

// deadlockError builds the structured deadlock diagnostic.
func (m *Machine) deadlockError(reason string) *simerr.Error {
	return simerr.New(simerr.ErrDeadlock, uint64(m.Q.Now()), "machine", 0, "%s", m.diagnostic(reason))
}

// abortError ends a run on a lifecycle stop (cancellation or budget):
// the same stuck-style snapshot a deadlock gets, wrapped in the stop's
// sentinel. Partial run stats stay readable: Cycles is set to the stop
// cycle so callers snapshotting m.Run see how far the run got.
func (m *Machine) abortError(s *runctl.Stop) *simerr.Error {
	m.Run.Cycles = uint64(m.Q.Now())
	return simerr.New(s.Sentinel, uint64(m.Q.Now()), "machine", 0, "%s", m.diagnostic(s.Reason))
}

func (m *Machine) hasDirectory() bool { return m.Cfg.Directory != config.DirNone }

// scheduleSample samples aggregate directory occupancy every SamplePeriod
// cycles while programs are running (Fig 9c's time-averaged counts).
func (m *Machine) scheduleSample() {
	m.Q.After(stats.SamplePeriod, func() {
		if m.activeCores == 0 {
			return
		}
		var byClass [addr.NumClasses]uint64
		for _, h := range m.Homes {
			if d := h.Directory(); d != nil {
				c := d.CountByClass()
				for i := range byClass {
					byClass[i] += c[i]
				}
			}
		}
		m.Run.Occupancy.Sample(byClass)
		var total uint64
		for _, n := range byClass {
			total += n
		}
		if mm := m.Run.Metrics; mm != nil {
			mm.DirOccupancy.Observe(total)
		}
		if len(m.Run.Timeline) < 1<<16 {
			m.Run.Timeline = append(m.Run.Timeline, stats.TimelineSample{
				Cycle:      uint64(m.Q.Now()),
				Messages:   m.Run.TotalMessages(),
				Probes:     m.Run.ProbesSent,
				DirEntries: total,
			})
		}
		m.scheduleSample()
	})
}

// DrainToMemory force-writes every dirty L2 word to the backing store so
// host-side verification observes final values. It models the exit flush
// a real runtime performs and must only be called after Simulate.
func (m *Machine) DrainToMemory() {
	for _, cl := range m.Clusters {
		cl.DrainDirty(func(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
			m.Store.MergeLine(line, mask, data)
		})
	}
}

// CheckInvariants validates protocol state at quiescence:
//
//   - every Modified directory entry has exactly its owner holding the
//     line in Modified state;
//   - every sharer recorded in a (non-broadcast) Shared entry that still
//     holds the line holds it coherently;
//   - every hardware-coherent line in an L2 is covered by a directory
//     entry naming that cluster (directory inclusivity);
//   - Modified L2 lines match their directory entry's owner;
//   - no L2 line is simultaneously coherent and incoherent with its
//     domain: under Cohesion an incoherent line's region-table state must
//     say SWcc, a coherent line's must say HWcc.
func (m *Machine) CheckInvariants() error {
	if m.oracle != nil {
		// The oracle's domain model must agree with the region tables at
		// quiescence (runs for every mode, including directory-less SWcc).
		if err := m.oracle.CheckDomains(m.isSWccDomain); err != nil {
			return err
		}
	}
	if !m.hasDirectory() {
		return nil
	}
	holds := func(clusterID int, line addr.Line) *cache.Entry {
		return m.Clusters[clusterID].L2().Peek(line)
	}
	for b, h := range m.Homes {
		d := h.Directory()
		var err error
		d.ForEach(func(e *directory.Entry) {
			if err != nil {
				return
			}
			if e.Pinned {
				err = fmt.Errorf("bank %d line %#x: pinned entry at quiescence", b, uint64(e.Line))
				return
			}
			if e.State == directory.Modified {
				le := holds(int(e.Owner), e.Line)
				if le == nil {
					err = fmt.Errorf("bank %d line %#x: M entry but owner %d does not hold it", b, uint64(e.Line), e.Owner)
					return
				}
				if le.Incoherent || le.State != cache.StateModified {
					err = fmt.Errorf("bank %d line %#x: owner %d holds line in wrong state", b, uint64(e.Line), e.Owner)
				}
				return
			}
			if e.Broadcast {
				return // sharer set is conservative by design
			}
			e.Sharers.ForEach(func(c int) {
				if err != nil {
					return
				}
				if le := holds(c, e.Line); le != nil && le.Incoherent {
					err = fmt.Errorf("bank %d line %#x: sharer %d holds line incoherently", b, uint64(e.Line), c)
				}
			})
		})
		if err != nil {
			return err
		}
	}
	// Reverse direction: L2 contents covered by the directory.
	for cid, cl := range m.Clusters {
		var err error
		cl.L2().ForEach(func(le *cache.Entry) {
			if err != nil {
				return
			}
			line := le.Line
			bank := region.HomeBankOfLine(line, m.Cfg.L3Banks)
			d := m.Homes[bank].Directory()
			if le.Incoherent {
				if d.Lookup(line) != nil {
					err = fmt.Errorf("cluster %d line %#x: incoherent line has a directory entry", cid, uint64(line))
					return
				}
				if m.Cfg.Mode == config.Cohesion && !m.isSWccDomain(line) {
					err = fmt.Errorf("cluster %d line %#x: incoherent line in HWcc domain", cid, uint64(line))
				}
				return
			}
			e := d.Lookup(line)
			if e == nil {
				err = fmt.Errorf("cluster %d line %#x: coherent line with no directory entry", cid, uint64(line))
				return
			}
			if le.State == cache.StateModified {
				if e.State != directory.Modified || int(e.Owner) != cid {
					err = fmt.Errorf("cluster %d line %#x: L2 Modified but directory disagrees", cid, uint64(line))
				}
				return
			}
			if !e.Broadcast && !e.Sharers.Has(cid) {
				err = fmt.Errorf("cluster %d line %#x: sharer missing from directory entry", cid, uint64(line))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) isSWccDomain(line addr.Line) bool {
	base := line.Base()
	if m.Coarse != nil && m.Coarse.Contains(base) {
		return true
	}
	return m.Fine != nil && m.Fine.IsSWcc(base)
}

// DirectoryEntries reports the current total allocated entries (for tests).
func (m *Machine) DirectoryEntries() int {
	n := 0
	for _, h := range m.Homes {
		if d := h.Directory(); d != nil {
			n += d.Count()
		}
	}
	return n
}
