// Package cluster models one eight-core cluster of the baseline machine
// (paper §3.1): simple in-order cores with private L1 instruction and data
// caches, sharing a unified L2 cache whose controller implements the
// L2 side of all three memory models — HWcc (MSI requests, probe
// handling, read releases), SWcc (write-allocate without directory
// involvement, per-word dirty bits, software flush/invalidate), and
// Cohesion (the per-line incoherent bit and capture probes).
//
// Cores execute workload programs on runtime coroutines (iter.Pull): the
// machine resumes a program with its last result and receives the next
// operation in one direct stack switch, with no goroutine, channel, or
// scheduler involvement. The machine and the program still alternate
// strictly — exactly one of them runs at any moment — so the simulation
// stays single-threaded and deterministic, and programs may freely touch
// host-side state (statistics, allocators, golden models) between
// operations. Every operation goes through one queue per core: Do queues
// its operation and suspends the program, while DoAsync queues without
// suspending, including loads whose addresses the program already knows
// (Gather). The machine issues queued operations in program order with
// unchanged timing and resumes the program once the queue is empty.
package cluster

import (
	"fmt"
	"iter"
	"sort"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/config"
	"cohesion/internal/event"
	"cohesion/internal/linetab"
	"cohesion/internal/msg"
	"cohesion/internal/oracle"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
	"cohesion/internal/trace"
)

// HomeSend routes a request to the home bank of its line and delivers the
// response; installed by the machine assembly.
type HomeSend func(req msg.Req, onResp func(msg.Resp))

// OpKind enumerates the operations a workload program can issue.
type OpKind uint8

const (
	OpLoad OpKind = iota
	OpStore
	OpAtomic
	OpUncLoad
	OpUncStore
	OpFlush // software writeback (WB) of one line
	OpInv   // software invalidate (INV) of one line
	OpWork  // Cycles of non-memory computation
	OpDone  // program finished

	opGather // a load whose value joins the batch Sync returns
)

func (k OpKind) String() string {
	switch k {
	case OpLoad, opGather:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpUncLoad:
		return "unc-load"
	case OpUncStore:
		return "unc-store"
	case OpFlush:
		return "flush"
	case OpInv:
		return "inv"
	case OpWork:
		return "work"
	case OpDone:
		return "done"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one operation yielded by a workload program.
type Op struct {
	Kind   OpKind
	Addr   addr.Addr
	Value  uint32
	AOp    msg.AtomicOp
	Op2    uint32
	Cycles int64 // OpWork only
}

// Core is one in-order core. Programs interact with it only through Do,
// from inside the program coroutine; everything else belongs to the
// machine side. Until StartCore gives it a program, a core is only its ID
// and cluster: every other field is zero.
type Core struct {
	ID      int // global core id
	cluster *Cluster
	l1i     *cache.Tags
	l1d     *cache.Tags

	// Coroutine handles for the program (iter.Pull over its parks). next
	// resumes the program with the value left in resp and returns once it
	// parks (false once it has returned), and is nil until the core
	// starts; stop unwinds a parked program.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	resp     uint32
	returned bool // the program has returned; the queue holds its last ops

	// opq queues every operation the program issues, and the machine
	// drains it one operation per completion. DoAsync queues without
	// parking the program: a coroutine switch costs more than issuing the
	// operation itself, so the program runs ahead — host-side only — and
	// per-core program order, issue timing, and the global event schedule
	// are bit-identical to parking at every operation; the only thing that
	// moves is when program host code runs, which by construction cannot
	// observe simulated state except through the values Do and Sync
	// return. gathered collects, in program order, the values of gathered
	// loads for Sync.
	opq      []Op
	opqHead  int
	gathered []uint32

	pcOff    int // byte offset of the next fetch within the code footprint
	codeBase addr.Addr
	codeLen  int // code footprint in bytes, at least one word

	done    bool
	pending Op

	ifetchLine addr.Line   // line being instruction-fetched
	opBorn     event.Cycle // send time of the in-flight uncached/flush request

	raceTrapped bool // a table write's ack carried a race exception

	// Pre-bound continuation funcs for the per-operation issue ladder
	// (fetch -> ifetch -> execute -> access -> complete). Binding them
	// once when the core starts keeps the hot path from allocating a fresh
	// closure per operation; they are scheduled millions of times per
	// simulation. Each reads the in-flight operation from c.pending (a
	// core has exactly one operation in flight), so no per-op state needs
	// capturing.
	fetchFn        func() // cl.fetchNext(c)
	stepFn         func() // cl.step(c)
	completeZeroFn func() // cl.complete(c, 0)
	ifetchL2Fn     func() // cl.ifetchL2(c)
	ifetchFillFn   func() // cl.ifetchFill(c)
	l2LoadFn       func() // cl.l2Load(c)
	l2StoreFn      func() // cl.l2Store(c)
	flushFn        func() // cl.flush(c)
	invFn          func() // cl.inv(c)
	uncachedRespFn func(msg.Resp)
	flushRespFn    func(msg.Resp)
}

// coreShutdown is the panic value Do raises to unwind a program coroutine
// when the machine aborts a run; StartCore's wrapper swallows it.
type coreShutdown struct{}

// park suspends the program until the machine has issued every queued
// operation. If the cluster has been shut down (the machine aborted the
// run), it unwinds the program instead of suspending forever.
func (c *Core) park() {
	if !c.yield(struct{}{}) {
		panic(coreShutdown{})
	}
}

// Do issues one operation and suspends the program until it completes,
// returning the operation's result (loaded value, atomic's old value).
// It must be called only from inside the core's program.
func (c *Core) Do(o Op) uint32 {
	c.opq = append(c.opq, o)
	c.park()
	return c.resp
}

// asyncBatchCap bounds how far a program may run ahead of the machine
// through DoAsync before it is forced to suspend and let the queue drain.
const asyncBatchCap = 64

// DoAsync issues an operation without suspending the program. The
// operation is queued and issued by the machine in program order,
// with the same per-operation timing as a synchronous Do; the program
// suspends at its next Do or Sync (or once the queue holds more than
// asyncBatchCap operations) until every queued operation has completed.
// Must only be called from inside the core's program, and only for
// operations whose result is discarded or, for a gathered load, collected
// by Sync.
func (c *Core) DoAsync(o Op) {
	c.opq = append(c.opq, o)
	if len(c.opq) > asyncBatchCap {
		c.park()
	}
}

// Gather queues a load of the word at a without suspending the program;
// the next Sync returns its value. Neither the address nor whether the
// load is issued may depend on a value gathered since the last Sync.
func (c *Core) Gather(a addr.Addr) { c.DoAsync(Op{Kind: opGather, Addr: a}) }

// Sync suspends the program until every queued operation has completed,
// resuming it where a synchronous load would have, and returns the values
// gathered since the last Sync in program order. The next batch reuses
// the slice.
func (c *Core) Sync() []uint32 {
	if len(c.opq) > 0 {
		c.park()
	}
	vals := c.gathered
	c.gathered = c.gathered[:0]
	return vals
}

// TakeRaceTrap reports and clears the core's pending race exception (set
// when a CohHWccRegion acknowledgement flagged a Figure 7 Case 5b race
// under config.TrapOnRace). Called from the program.
func (c *Core) TakeRaceTrap() bool {
	was := c.raceTrapped
	c.raceTrapped = false
	return was
}

// SetCode positions the core's instruction stream inside a kernel's code
// footprint; every operation advances the PC by one instruction and
// misses in the L1I/L2 fetch real lines from the code segment.
func (c *Core) SetCode(base addr.Addr, bytes int) {
	if bytes < addr.WordBytes {
		bytes = addr.WordBytes
	}
	c.codeBase, c.codeLen, c.pcOff = base, bytes, 0
}

// advance pops the core's next operation from its queue. With the queue
// empty it first resumes the program, which runs until it parks; a
// program that has returned with nothing queued is done.
func (c *Core) advance() {
	if c.opqHead == len(c.opq) && !c.returned {
		c.cluster.run.Resumes++
		_, parked := c.next()
		c.returned = !parked
	}
	if c.opqHead == len(c.opq) {
		c.pending = Op{Kind: OpDone}
		return
	}
	c.pending = c.opq[c.opqHead]
	c.opqHead++
	if c.opqHead == len(c.opq) { // drained: rewind the storage for reuse
		c.opq, c.opqHead = c.opq[:0], 0
	}
}

// Cluster is eight cores, their L1s, and the shared L2.
type Cluster struct {
	ID   int
	name string // "cl<id>", precomputed for the trace hot path
	cfg  config.Machine
	q    *event.Queue
	run  *stats.Run

	l2      *cache.Cache
	toHome  HomeSend
	Cores   []*Core
	started []*Core        // the cores StartCore gave a program, in start order
	orc     *oracle.Oracle // nil unless the online coherence oracle is enabled

	l2busy event.Cycle

	// txns tracks in-flight L2 transactions by line. An open-addressed
	// table rather than a map: the working set is tens of lines churning
	// millions of times, and its deterministic slot-order iteration feeds
	// the watchdog and stuck reports directly.
	txns linetab.Table[*l2txn]
	seq  uint64 // transaction-ID sequence (per cluster)

	// freeTxn heads the cluster's l2txn free list. Transactions recycle
	// through it so steady-state misses allocate nothing; see l2txn for
	// the staleness rules that make recycling safe.
	freeTxn *l2txn

	onCoreDone func() // machine hook: a core's program completed

	stopped bool
}

// l2txn is an in-flight L2 miss/upgrade for one line. Operations arriving
// for the line while it is outstanding queue as retries.
//
// Records are pooled per cluster. Two staleness guards make recycling
// safe against ABA (a record freed and re-used for a new transaction on
// the same line): responses carry the transaction ID they answer (a
// response whose ID differs from the record's current ID is stale), and
// gen is monotonic across reuse — it is never reset — so a timer armed
// for an old incarnation can never match the current generation.
type l2txn struct {
	line    addr.Line
	id      uint64 // transaction ID shared by every retransmission; 0 = untracked
	kind    msg.ReqKind
	upgrade bool
	bornAt  event.Cycle

	gen      int // bumped on every (re)send; cancels stale timers; never reset
	timeouts int // timeout-driven retransmissions spent
	nacks    int // NACK-driven retransmissions spent

	retries []func()

	respFn   func(msg.Resp) // prebound response handler for every attempt
	nextFree *l2txn
}

// Timeout/retry defaults and NACK backoff parameters. Timeout-driven
// retransmission is armed only under fault injection with recovery on;
// NACK backoff is part of the base protocol (capacity NACKs can occur
// whenever DirNackOnCapacity is set, faults or not).
const (
	defaultRetryTimeout = 25000 // cycles before the first retransmission
	defaultRetryLimit   = 12    // timeout retransmissions before giving up
	nackBackoffBase     = 64    // cycles; doubles per consecutive NACK (capped)
	nackRetryBudget     = 100   // NACKs tolerated per transaction
)

// New builds a cluster. toHome and onCoreDone are installed by the machine.
// Its cores are only their IDs until StartCore gives one a program.
func New(id int, cfg config.Machine, q *event.Queue, run *stats.Run) *Cluster {
	cl := &Cluster{
		ID:   id,
		name: fmt.Sprintf("cl%d", id),
		cfg:  cfg,
		q:    q,
		run:  run,
		l2:   cache.New(cfg.L2Size, cfg.L2Assoc),
	}
	cores := make([]Core, cfg.CoresPerCluster)
	cl.Cores = make([]*Core, len(cores))
	for i := range cores {
		cores[i].ID = id*cfg.CoresPerCluster + i
		cores[i].cluster = cl
		cl.Cores[i] = &cores[i]
	}
	return cl
}

// Shutdown unwinds any program coroutines still suspended mid-operation
// after an aborted run. It is idempotent and must only be called once the
// event loop has stopped (the programs unwind without touching machine
// state). Normally-completed programs have already finished; Shutdown
// exists for the early-return paths — deadlock, retry exhaustion, cycle
// limit, oracle violation — where cores are still mid-operation. Stopping
// a finished (or never-resumed) coroutine is a no-op, so the loop needs
// no per-core state check.
func (cl *Cluster) Shutdown() {
	if cl.stopped {
		return
	}
	cl.stopped = true
	for _, c := range cl.started {
		c.stop()
	}
}

// Wire installs the machine glue.
func (cl *Cluster) Wire(toHome HomeSend, onCoreDone func()) {
	cl.toHome = toHome
	cl.onCoreDone = onCoreDone
}

// SetOracle attaches the online coherence oracle; the cluster reports
// every completed load/store, install, probe effect, flush, and eviction
// to it. A nil oracle (the default) costs nothing on the hot paths.
func (cl *Cluster) SetOracle(o *oracle.Oracle) { cl.orc = o }

// L2 exposes the shared cache for invariant checks and end-of-run drains.
func (cl *Cluster) L2() *cache.Cache { return cl.l2 }

// Pending reports whether the L2 has outstanding transactions.
func (cl *Cluster) Pending() bool { return cl.txns.Len() > 0 }

// OldestTxn reports the cluster's longest-outstanding L2 transaction
// (age and line), ties broken by lowest line address so the answer is
// deterministic. ok is false when no transaction is outstanding. The
// watchdog uses it to catch a single wedged transaction even while
// other cores keep completing operations (e.g. spin-waiting pollers).
func (cl *Cluster) OldestTxn(now event.Cycle) (age event.Cycle, line addr.Line, ok bool) {
	cl.txns.ForEach(func(l addr.Line, t *l2txn) {
		a := now - t.bornAt
		if !ok || a > age || (a == age && l < line) {
			age, line, ok = a, l, true
		}
	})
	return age, line, ok
}

// StartCore launches a program on core index i. The program runs on a
// runtime coroutine; the first operation is fetched when the core's first
// issue event fires. Only here does a core get its L1 arrays, its
// continuation funcs and an op queue that never grows, so an idle core
// costs nothing.
func (cl *Cluster) StartCore(i int, program func(c *Core)) {
	c := cl.Cores[i]
	if c.next != nil {
		panic(simerr.Invariant(uint64(cl.q.Now()), cl.site(), 0, "core %d started twice", c.ID))
	}
	c.l1i = cache.NewTags(cl.cfg.L1ISize, cl.cfg.L1IAssoc)
	c.l1d = cache.NewTags(cl.cfg.L1DSize, cl.cfg.L1DAssoc)
	c.opq = make([]Op, 0, asyncBatchCap+1)
	c.codeLen = addr.WordBytes
	c.fetchFn = func() { cl.fetchNext(c) }
	c.stepFn = func() { cl.step(c) }
	c.completeZeroFn = func() { cl.complete(c, 0) }
	c.ifetchL2Fn = func() { cl.ifetchL2(c) }
	c.ifetchFillFn = func() { cl.ifetchFill(c) }
	c.l2LoadFn = func() { cl.l2Load(c) }
	c.l2StoreFn = func() { cl.l2Store(c) }
	c.flushFn = func() { cl.flush(c) }
	c.invFn = func() { cl.inv(c) }
	c.uncachedRespFn = func(resp msg.Resp) { cl.uncachedResp(c, resp) }
	c.flushRespFn = func(msg.Resp) {
		if m := cl.run.Metrics; m != nil {
			m.MsgLatency[msg.SWFlush].Observe(uint64(cl.q.Now() - c.opBorn))
		}
		cl.complete(c, 0)
	}
	cl.started = append(cl.started, c)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(coreShutdown); !ok {
					panic(r)
				}
			}
		}()
		program(c)
	})
	cl.q.After(1, c.fetchFn)
}

// fetchNext takes the core's first operation, resuming the program for
// it, then steps it. The strict alternation keeps simulation deterministic:
// exactly one of machine and program runs at any moment.
func (cl *Cluster) fetchNext(c *Core) {
	c.advance()
	cl.step(c)
}

func (cl *Cluster) step(c *Core) {
	if c.pending.Kind == OpDone {
		c.done = true
		if cl.onCoreDone != nil {
			cl.onCoreDone()
		}
		return
	}
	cl.ifetch(c)
}

// complete records the op's result, takes the next operation (resuming
// the program once the queue is empty, until it parks), and schedules
// that operation's issue one cycle later. Resuming here — rather than when
// the issue event fires — is what keeps the strict machine/program
// alternation: the event loop never runs concurrently with program code,
// so programs may freely touch host-side state (statistics, allocators,
// golden models) between operations.
func (cl *Cluster) complete(c *Core, v uint32) {
	cl.run.ForwardProgress++
	if c.pending.Kind == opGather {
		c.gathered = append(c.gathered, v)
	}
	c.resp = v
	c.advance()
	cl.q.After(1, c.stepFn)
}

// ifetch models the instruction stream: each operation advances the PC by
// one instruction within the kernel's code footprint; L1I misses access
// the L2, and L2 misses fetch the code line from the L3 (counted as
// Instruction Requests, always coherence-free reads for code).
func (cl *Cluster) ifetch(c *Core) {
	cl.run.Instructions++
	line := addr.LineOf(c.codeBase + addr.Addr(c.pcOff))
	c.pcOff += addr.WordBytes
	if c.pcOff >= c.codeLen { // codeLen >= WordBytes: one subtraction wraps
		c.pcOff -= c.codeLen
	}
	if c.l1i.Lookup(line) != nil {
		cl.execute(c)
		return
	}
	c.ifetchLine = line
	cl.l2Stage(c.ifetchL2Fn)
}

// ifetchL2 is the L2 stage of an instruction fetch that missed the L1I.
func (cl *Cluster) ifetchL2(c *Core) {
	line := c.ifetchLine
	if cl.l2.Lookup(line) != nil {
		c.l1i.Allocate(line) // code is clean; victims drop silently
		cl.execute(c)
		return
	}
	cl.joinTxn(line, false, c.ifetchFillFn, msg.ReqInstr)
}

// ifetchFill resumes an instruction fetch once its L2 fill settled.
func (cl *Cluster) ifetchFill(c *Core) {
	line := c.ifetchLine
	if cl.l2.Peek(line) != nil && c.l1i.Peek(line) == nil {
		c.l1i.Allocate(line)
	}
	cl.execute(c)
}

// l2Stage schedules fn after the L2 access latency, serializing on the
// cluster's shared L2 port.
func (cl *Cluster) l2Stage(fn func()) {
	start := cl.q.Now()
	if cl.l2busy > start {
		start = cl.l2busy
	}
	if m := cl.run.Metrics; m != nil {
		m.L2PortWait.Observe(uint64(start - cl.q.Now()))
	}
	cl.l2busy = start + 1
	cl.q.At(start+event.Cycle(cl.cfg.L2Latency), fn)
}

func (cl *Cluster) execute(c *Core) {
	o := c.pending
	switch o.Kind {
	case OpWork:
		cl.run.Instructions += uint64(o.Cycles)
		cl.q.After(event.Cycle(o.Cycles), c.completeZeroFn)
	case OpLoad, opGather:
		cl.load(c)
	case OpStore:
		cl.l2Stage(c.l2StoreFn)
	case OpAtomic, OpUncLoad, OpUncStore:
		cl.uncached(c)
	case OpFlush:
		cl.l2Stage(c.flushFn)
	case OpInv:
		cl.l2Stage(c.invFn)
	default:
		panic(simerr.Invariant(uint64(cl.q.Now()), cl.site(), uint64(addr.LineOf(o.Addr).Base()),
			"unknown op kind %d from core %d", o.Kind, c.ID))
	}
}

// edge records one L2-side protocol step on line (stats.Run.Step). The
// check inlines at every call site, so a run with neither coverage nor a
// trace attached pays one branch.
func (cl *Cluster) edge(e trace.EdgeID, line addr.Line) {
	if r := cl.run; r.Coverage != nil || r.Trace != nil {
		cl.record(e, line)
	}
}

// record is edge's out-of-line half; inlined, it would push edge past the
// compiler's inlining budget.
//
//go:noinline
func (cl *Cluster) record(e trace.EdgeID, line addr.Line) {
	cl.run.Step(e, uint64(cl.q.Now()), cl.name, line, cl.ID)
}

// traceTxn records one endpoint of a tracked transaction's lifecycle span
// (phase 'b' at first transmission, 'e' at settle) in the attached trace
// ring. The Chrome exporter pairs the endpoints by transaction ID into an
// async span, so retry storms and NACK convoys are visible as long bars in
// the trace viewer.
func (cl *Cluster) traceTxn(phase byte, t *l2txn) {
	cl.run.Trace.Add(trace.Record{Cycle: uint64(cl.q.Now()), Site: cl.name, Event: t.kind.String(),
		Line: uint64(t.line.Base()), ID: t.id, Cluster: int32(cl.ID), Phase: phase})
}

// send counts and transmits a request to the line's home bank.
func (cl *Cluster) send(req msg.Req, onResp func(msg.Resp)) {
	req.Cluster = cl.ID
	cl.run.CountMessage(req.Kind.Class())
	cl.toHome(req, onResp)
}

// load returns the word at the pending op's address through the L1D/L2
// hierarchy.
func (cl *Cluster) load(c *Core) {
	a := c.pending.Addr
	line := addr.LineOf(a)
	bit := cache.WordBit(a)
	if c.l1d.Lookup(line) != nil {
		e := cl.l2.Peek(line)
		if e == nil {
			panic(simerr.Invariant(uint64(cl.q.Now()), cl.site(), uint64(line.Base()),
				"L1D/L2 inclusion broken: line in core %d's L1D but absent from L2", c.ID))
		}
		if e.ValidMask&bit != 0 {
			v := e.Data[addr.WordIndex(a)]
			if cl.orc != nil {
				cl.orc.LoadObserved(cl.ID, a, v)
			}
			cl.complete(c, v)
			return
		}
		// The line is resident but this word was never filled (SWcc
		// write-allocate leaves partial lines): fall through to a fetch.
	}
	cl.l2Stage(c.l2LoadFn)
}

func (cl *Cluster) l2Load(c *Core) {
	a := c.pending.Addr
	line := addr.LineOf(a)
	bit := cache.WordBit(a)
	if e := cl.l2.Lookup(line); e != nil && e.ValidMask&bit != 0 {
		if c.l1d.Peek(line) == nil {
			c.l1d.Allocate(line) // tags only; L1D victims drop silently
		}
		v := e.Data[addr.WordIndex(a)]
		if cl.orc != nil {
			cl.orc.LoadObserved(cl.ID, a, v)
		}
		cl.complete(c, v)
		return
	}
	// Miss, or resident with the needed word invalid: fetch and merge.
	cl.joinTxn(line, false, c.l2LoadFn, msg.ReqRead)
}

// l2Store writes the pending op's word. Stores are write-through to the
// L2 and need write permission there: Modified under HWcc, or the
// incoherent bit under SWcc/Cohesion. In pure SWcc mode a store miss
// write-allocates locally with per-word valid/dirty bits and sends no
// message at all (paper §2.1: "Writes can be issued as write-allocates
// under SWcc without waiting on a directory response").
func (cl *Cluster) l2Store(c *Core) {
	a, v := c.pending.Addr, c.pending.Value
	line := addr.LineOf(a)
	bit := cache.WordBit(a)
	e := cl.l2.Lookup(line)
	if e != nil {
		if e.Incoherent || e.State == cache.StateModified {
			if e.Incoherent {
				cl.edge(trace.EdgeL2StoreHitIncoherent, line)
			} else {
				cl.edge(trace.EdgeL2StoreHitModified, line)
			}
			if cl.orc != nil {
				cl.orc.StoreObserved(cl.ID, a, v, e.Incoherent)
			}
			e.Data[addr.WordIndex(a)] = v
			e.ValidMask |= bit
			e.DirtyMask |= bit
			cl.complete(c, 0)
			return
		}
		// Shared under HWcc: upgrade.
		cl.joinTxn(line, true, c.l2StoreFn, msg.ReqWrite)
		return
	}
	if cl.cfg.Mode == config.SWcc {
		cl.edge(trace.EdgeL2WriteAllocate, line)
		ne, victim, evicted := cl.l2.Allocate(line)
		if evicted {
			cl.evictVictim(victim)
		}
		ne.Incoherent = true
		ne.ValidMask = bit
		ne.DirtyMask = bit
		ne.Data[addr.WordIndex(a)] = v
		if cl.orc != nil {
			cl.orc.StoreObserved(cl.ID, a, v, true)
		}
		cl.complete(c, 0)
		return
	}
	cl.joinTxn(line, true, c.l2StoreFn, msg.ReqWrite)
}

// allocTxn takes a transaction record from the free list (or allocates
// the pool's next record) and resets its per-incarnation state. gen is
// deliberately NOT reset: see l2txn.
func (cl *Cluster) allocTxn(line addr.Line, kind msg.ReqKind) *l2txn {
	t := cl.freeTxn
	if t == nil {
		t = &l2txn{}
		t.respFn = func(resp msg.Resp) { cl.handleResp(t.line, t, resp) }
	} else {
		cl.freeTxn = t.nextFree
		t.nextFree = nil
	}
	t.line = line
	t.kind = kind
	t.id = 0
	t.upgrade = false
	t.bornAt = cl.q.Now()
	t.timeouts = 0
	t.nacks = 0
	return t
}

// releaseTxn returns a settled record to the free list, dropping retry
// references so settled continuations are not kept alive.
func (cl *Cluster) releaseTxn(t *l2txn) {
	for i := range t.retries {
		t.retries[i] = nil
	}
	t.retries = t.retries[:0]
	t.nextFree = cl.freeTxn
	cl.freeTxn = t
}

// joinTxn coalesces misses: if a transaction is outstanding for the line
// the retry queues behind it; otherwise a request of the given kind is
// sent and the response installed.
func (cl *Cluster) joinTxn(line addr.Line, write bool, retry func(), kind msg.ReqKind) {
	if t, ok := cl.txns.Get(line); ok {
		t.retries = append(t.retries, retry)
		return
	}
	if cl.txns.Len() >= cl.cfg.L2MSHRs {
		// All miss-status registers busy: stall and retry when one drains.
		cl.edge(trace.EdgeL2MSHRStall, line)
		cl.q.After(event.Cycle(cl.cfg.L2Latency), retry)
		return
	}
	t := cl.allocTxn(line, kind)
	t.upgrade = write && cl.l2.Peek(line) != nil
	if kind.Retryable() {
		cl.seq++
		t.id = uint64(cl.ID)<<32 | cl.seq // seq starts at 1, so IDs are nonzero
	}
	t.retries = append(t.retries, retry)
	cl.txns.Put(line, t)
	if e := cl.l2.Peek(line); e != nil {
		e.Pinned = true
	}
	cl.sendAttempt(line, t)
}

// sendAttempt transmits one (re)try of the transaction's request and arms
// its retransmission timer. Every attempt carries the same transaction ID,
// so the home deduplicates whatever subset of attempts survives the
// network.
func (cl *Cluster) sendAttempt(line addr.Line, t *l2txn) {
	t.gen++
	// Open the trace span only on the incarnation's first transmission
	// (gen is monotonic across pool reuse, so it cannot distinguish
	// incarnations; the retry counters reset per incarnation and every
	// retransmission path bumps one before resending).
	if t.id != 0 && t.timeouts == 0 && t.nacks == 0 && cl.run.Trace != nil {
		cl.traceTxn('b', t)
	}
	cl.send(msg.Req{Kind: t.kind, Line: line, ID: t.id}, t.respFn)
	cl.armTimeout(line, t, t.gen)
}

// handleResp settles (or retries) a transaction when a response arrives.
func (cl *Cluster) handleResp(line addr.Line, t *l2txn, resp msg.Resp) {
	if cur, _ := cl.txns.Get(line); cur != t || (resp.ID != 0 && resp.ID != t.id) {
		// A late response to an attempt of an already-settled transaction
		// (the home normally dedups these away; defense in depth). The ID
		// check catches the recycled-record case: the pool may have reused
		// the record for a new transaction on the same line.
		cl.run.StaleResponses++
		return
	}
	if resp.Grant == msg.GrantNack {
		cl.nackBackoff(line, t)
		return
	}
	if t.id != 0 && cl.run.Trace != nil {
		cl.traceTxn('e', t)
	}
	if m := cl.run.Metrics; m != nil {
		m.MsgLatency[t.kind.Class()].Observe(uint64(cl.q.Now() - t.bornAt))
		m.TxnRetries.Observe(uint64(t.timeouts + t.nacks))
	}
	cl.install(line, resp)
	cl.txns.Delete(line)
	for _, r := range t.retries {
		cl.q.After(0, r)
	}
	cl.releaseTxn(t)
}

// nackBackoff schedules a retransmission after a directory NACK, with
// capped exponential backoff so contending clusters spread out.
func (cl *Cluster) nackBackoff(line addr.Line, t *l2txn) {
	t.nacks++
	if t.nacks > nackRetryBudget {
		panic(simerr.New(simerr.ErrRetryExhausted, uint64(cl.q.Now()), cl.site(), uint64(line.Base()),
			"%v NACKed %d times since cycle %d", t.kind, t.nacks, t.bornAt))
	}
	cl.run.NackRetries++
	cl.edge(trace.EdgeRecNackBackoff, line)
	shift := t.nacks - 1
	if shift > 6 {
		shift = 6
	}
	delay := event.Cycle(nackBackoffBase) << uint(shift)
	gen := t.gen
	cl.q.After(delay, func() {
		if cur, _ := cl.txns.Get(line); cur != t || t.gen != gen {
			return
		}
		cl.sendAttempt(line, t)
	})
}

// armTimeout schedules the transaction's retransmission check. A fired
// timer whose generation is stale (the transaction settled — even if the
// record was recycled, generations are never reset — or was already
// retransmitted) does nothing.
func (cl *Cluster) armTimeout(line addr.Line, t *l2txn, gen int) {
	if t.id == 0 || !(cl.cfg.Faults.Enabled && cl.cfg.Faults.Recovery) {
		return
	}
	timeout := event.Cycle(cl.cfg.L2RetryTimeout)
	if timeout == 0 {
		timeout = defaultRetryTimeout
	}
	limit := cl.cfg.L2RetryLimit
	if limit == 0 {
		limit = defaultRetryLimit
	}
	shift := t.timeouts
	if shift > 5 {
		shift = 5
	}
	cl.q.After(timeout<<uint(shift), func() {
		if cur, _ := cl.txns.Get(line); cur != t || t.gen != gen {
			return
		}
		t.timeouts++
		if t.timeouts > limit {
			panic(simerr.New(simerr.ErrRetryExhausted, uint64(cl.q.Now()), cl.site(), uint64(line.Base()),
				"%v outstanding since cycle %d after %d timeout retransmissions", t.kind, t.bornAt, t.timeouts-1))
		}
		cl.run.L2Retries++
		cl.edge(trace.EdgeRecTimeoutRetry, line)
		cl.sendAttempt(line, t)
	})
}

// site names this cluster in diagnostics.
func (cl *Cluster) site() string { return cl.name }

// install applies a fill/upgrade response to the L2.
func (cl *Cluster) install(line addr.Line, resp msg.Resp) {
	e := cl.l2.Peek(line)
	fresh := e == nil
	if fresh {
		// Fresh fill (or the line was invalidated while upgrading and the
		// home sent data).
		if !resp.HasData {
			panic(simerr.Invariant(uint64(cl.q.Now()), cl.site(), uint64(line.Base()),
				"dataless %v response for absent line", resp.Grant))
		}
		var victim cache.Entry
		var evicted bool
		e, victim, evicted = cl.l2.Allocate(line)
		if evicted {
			cl.evictVictim(victim)
		}
		e.Data = resp.Data
		e.ValidMask = cache.FullMask
	} else {
		e.Pinned = false
		if resp.HasData {
			// Merge fetched words under locally dirty ones (SWcc partial
			// lines keep their write-allocated words).
			cl.edge(trace.EdgeL2MergeFill, line)
			for w := 0; w < addr.WordsPerLine; w++ {
				if e.ValidMask&(1<<w) == 0 {
					e.Data[w] = resp.Data[w]
				}
			}
			e.ValidMask = cache.FullMask
		}
	}
	switch resp.Grant {
	case msg.GrantShared:
		if fresh {
			cl.edge(trace.EdgeL2FillShared, line)
		}
		e.Incoherent = false
		e.State = cache.StateShared
	case msg.GrantModified:
		if fresh {
			cl.edge(trace.EdgeL2FillModified, line)
		} else if !resp.HasData {
			cl.edge(trace.EdgeL2UpgradeDataless, line)
		}
		e.Incoherent = false
		e.State = cache.StateModified
	case msg.GrantIncoherent:
		if fresh {
			cl.edge(trace.EdgeL2FillIncoherent, line)
		}
		e.Incoherent = true
		e.State = cache.StateInvalid
	}
	if cl.orc != nil {
		cl.orc.InstallObserved(cl.ID, e)
	}
}

// uncached performs atomic and uncached word operations at the L3,
// bypassing the local caches (the paper's atom.* instructions and
// uncached loads/stores used by the runtime).
func (cl *Cluster) uncached(c *Core) {
	o := c.pending
	kind := msg.ReqAtomic
	switch o.Kind {
	case OpUncLoad:
		kind = msg.ReqUncLoad
	case OpUncStore:
		kind = msg.ReqUncStore
	}
	req := msg.Req{
		Kind:     kind,
		Line:     addr.LineOf(o.Addr),
		Addr:     addr.WordAlign(o.Addr),
		Op:       o.AOp,
		Operand:  o.Value,
		Operand2: o.Op2,
	}
	c.opBorn = cl.q.Now()
	cl.send(req, c.uncachedRespFn)
}

// uncachedResp settles an uncached/atomic operation. All three kinds
// share the Atomic accounting class, so the latency histogram index is
// constant.
func (cl *Cluster) uncachedResp(c *Core, resp msg.Resp) {
	if m := cl.run.Metrics; m != nil {
		m.MsgLatency[msg.Atomic].Observe(uint64(cl.q.Now() - c.opBorn))
	}
	if resp.RaceException {
		c.raceTrapped = true
	}
	cl.complete(c, resp.Value)
}

// flush implements the software WB instruction for the line containing
// the pending op's address: dirty words are written back to the L3 and
// the line stays resident clean. Flushes of absent lines are the wasted
// operations of Figure 3. Runs after the L2 stage latency.
func (cl *Cluster) flush(c *Core) {
	line := addr.LineOf(c.pending.Addr)
	cl.run.WBIssued++
	e := cl.l2.Peek(line)
	if e == nil {
		cl.edge(trace.EdgeL2FlushAbsent, line)
		cl.complete(c, 0)
		return
	}
	cl.run.WBUseful++
	if e.DirtyMask == 0 {
		cl.edge(trace.EdgeL2FlushClean, line)
		cl.complete(c, 0)
		return
	}
	cl.edge(trace.EdgeL2FlushDirty, line)
	req := msg.Req{Kind: msg.ReqSWFlush, Line: line, Mask: e.DirtyMask, Data: e.Data}
	e.DirtyMask = 0
	if cl.orc != nil {
		cl.orc.WritebackObserved(cl.ID, line, req.Mask, req.Data)
	}
	c.opBorn = cl.q.Now()
	cl.send(req, c.flushRespFn)
}

// inv implements the software INV instruction: the line is dropped
// locally. Incoherent lines drop silently (clean SWcc drops send no
// message, paper §3.4); hardware-coherent lines are surrendered properly
// so the directory stays consistent (dirty data written back, clean copies
// released). Runs after the L2 stage latency.
func (cl *Cluster) inv(c *Core) {
	line := addr.LineOf(c.pending.Addr)
	cl.run.InvIssued++
	e := cl.l2.Peek(line)
	if e == nil || e.Pinned {
		cl.edge(trace.EdgeL2InvAbsent, line)
		cl.complete(c, 0)
		return
	}
	cl.run.InvUseful++
	cl.edge(trace.EdgeL2InvDrop, line)
	cl.dropLine(e)
	cl.complete(c, 0)
}

// dropLine implements the INV instruction's removal: incoherent lines are
// discarded outright — dirty words included; invalidation means the data
// is not wanted — while hardware-coherent lines are surrendered properly
// so the directory stays consistent.
func (cl *Cluster) dropLine(e *cache.Entry) {
	line := e.Line
	if cl.orc != nil {
		cl.orc.EvictObserved(cl.ID, e, !e.Incoherent)
	}
	if !e.Incoherent {
		cl.surrender(*e)
	}
	cl.l2.Invalidate(line)
	cl.invalidateL1(line)
}

// evictVictim handles a line displaced by an allocation.
func (cl *Cluster) evictVictim(victim cache.Entry) {
	if cl.orc != nil {
		cl.orc.EvictObserved(cl.ID, &victim, true)
	}
	cl.invalidateL1(victim.Line)
	cl.surrender(victim)
}

// surrender emits the message an L2 owes the home when giving up a line:
// dirty data is written back (Cache Evictions); clean hardware-coherent
// lines send a read release when the protocol uses them; clean incoherent
// lines drop silently.
func (cl *Cluster) surrender(e cache.Entry) {
	switch {
	case e.Incoherent:
		if e.DirtyMask != 0 {
			cl.edge(trace.EdgeL2EvictDirtyIncoh, e.Line)
			cl.send(msg.Req{Kind: msg.ReqEvict, Line: e.Line, Mask: e.DirtyMask, Data: e.Data}, nil)
		} else {
			cl.edge(trace.EdgeL2EvictSilent, e.Line)
		}
	case e.State == cache.StateModified:
		cl.edge(trace.EdgeL2EvictDirtyHW, e.Line)
		cl.send(msg.Req{Kind: msg.ReqEvict, Line: e.Line, Mask: e.DirtyMask, Data: e.Data}, nil)
	case e.State == cache.StateShared && cl.cfg.ReadReleases:
		cl.edge(trace.EdgeL2EvictReadRel, e.Line)
		cl.send(msg.Req{Kind: msg.ReqReadRel, Line: e.Line}, nil)
	default:
		cl.edge(trace.EdgeL2EvictSilent, e.Line)
	}
}

// invalidateL1 drops line from the L1s of every started core; an idle
// core has none.
func (cl *Cluster) invalidateL1(line addr.Line) {
	for _, c := range cl.started {
		c.l1d.Invalidate(line)
		c.l1i.Invalidate(line)
	}
}

// HandleProbe services a directory probe, replying through reply (the
// machine glue counts the reply as a Probe Response and routes it back).
func (cl *Cluster) HandleProbe(p msg.Probe, reply func(msg.ProbeReply)) {
	if cl.orc != nil {
		// Observe every reply at the moment it leaves (after the L2 entry
		// was mutated), so the oracle's holder model tracks probe effects.
		inner := reply
		reply = func(rep msg.ProbeReply) {
			cl.orc.ProbeApplied(cl.ID, p, rep)
			inner(rep)
		}
	}
	e := cl.l2.Peek(p.Line)
	base := msg.ProbeReply{Cluster: cl.ID, Line: p.Line}
	switch p.Kind {
	case msg.ProbeInv:
		if e == nil {
			cl.edge(trace.EdgeL2ProbeInvAbsent, p.Line)
			base.Kind = msg.ReplyAck
			reply(base)
			return
		}
		if e.DirtyMask != 0 {
			// Defensive: every live ProbeInv path targets clean copies
			// (capture-clean clears the incoherent bit synchronously, and
			// stores on Shared serialize behind the home's pinned txn), so
			// this branch is unreachable today. Kept so a future protocol
			// change cannot silently lose dirty data; deliberately not a
			// registered coverage edge (PROTOCOL.md §7).
			base.Kind = msg.ReplyData
			base.Mask = e.DirtyMask
			base.Data = e.Data
		} else {
			cl.edge(trace.EdgeL2ProbeInvClean, p.Line)
			base.Kind = msg.ReplyAck
		}
		cl.l2.Invalidate(p.Line)
		cl.invalidateL1(p.Line)
		reply(base)

	case msg.ProbeWB:
		if e == nil {
			cl.edge(trace.EdgeL2ProbeWBAbsent, p.Line)
			base.Kind = msg.ReplyAck // eviction in flight; home will merge it
			reply(base)
			return
		}
		cl.edge(trace.EdgeL2ProbeWBData, p.Line)
		base.Kind = msg.ReplyData
		base.Mask = e.DirtyMask
		base.Data = e.Data
		cl.l2.Invalidate(p.Line)
		cl.invalidateL1(p.Line)
		reply(base)

	case msg.ProbeCapture:
		switch {
		case e == nil:
			cl.edge(trace.EdgeL2CaptureAbsent, p.Line)
			base.Kind = msg.ReplyNotPresent
		case e.DirtyMask != 0:
			// Report dirty words; phase two decides writeback vs upgrade.
			cl.edge(trace.EdgeL2CaptureDirty, p.Line)
			base.Kind = msg.ReplyDirty
			base.Mask = e.DirtyMask
		default:
			// Clean: the line becomes a hardware sharer in place.
			cl.edge(trace.EdgeL2CaptureClean, p.Line)
			e.Incoherent = false
			e.State = cache.StateShared
			base.Kind = msg.ReplyClean
		}
		reply(base)

	case msg.ProbeUpgradeOwner:
		if e == nil {
			base.Kind = msg.ReplyNotPresent
			reply(base)
			return
		}
		cl.edge(trace.EdgeL2CaptureUpgrade, p.Line)
		e.Incoherent = false
		e.State = cache.StateModified
		base.Kind = msg.ReplyAck
		reply(base)

	default:
		panic(simerr.Invariant(uint64(cl.q.Now()), cl.site(), uint64(p.Line.Base()),
			"unknown probe kind %v", p.Kind))
	}
}

// StuckReport describes the cluster's unfinished work — outstanding L2
// transactions and cores blocked mid-operation — for deadlock diagnostics.
// Returns nil when nothing is outstanding. Lines are sorted so the report
// is deterministic.
func (cl *Cluster) StuckReport(now event.Cycle) []string {
	var out []string
	lines := make([]addr.Line, 0, cl.txns.Len())
	cl.txns.ForEach(func(line addr.Line, _ *l2txn) { lines = append(lines, line) })
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		t, _ := cl.txns.Get(line)
		out = append(out, fmt.Sprintf(
			"cl%d: %v line=%#x outstanding %d cycles (id=%#x, %d waiters, %d timeouts, %d nacks)",
			cl.ID, t.kind, uint64(line.Base()), now-t.bornAt, t.id, len(t.retries), t.timeouts, t.nacks))
	}
	for _, c := range cl.Cores {
		if c.next != nil && !c.done && c.pending.Kind != OpDone {
			out = append(out, fmt.Sprintf("cl%d: core %d blocked on %v addr=%#x",
				cl.ID, c.ID, c.pending.Kind, uint64(c.pending.Addr)))
		}
	}
	return out
}

// DrainDirty force-writes every dirty word in the L2 to the backing store
// via fn; used by the machine at simulation end so host-side verification
// sees final values (the hardware analogue is the chip's exit flush).
func (cl *Cluster) DrainDirty(fn func(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32)) {
	cl.l2.ForEach(func(e *cache.Entry) {
		if e.DirtyMask != 0 {
			fn(e.Line, e.DirtyMask, e.Data)
		}
	})
}
