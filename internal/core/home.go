// Package core implements the paper's primary contribution: the home-node
// controller that unifies a directory-based MSI hardware coherence protocol
// (HWcc), service for software-managed coherence (SWcc), and the Cohesion
// transition protocol that migrates lines between the two domains at run
// time (paper §3).
//
// One Home instance sits at each L3 cache bank, collocated with its
// directory bank (paper §3.2: "One bank of the directory is attached to
// each L3 cache bank. All directory requests are serialized through a home
// directory bank, thus avoiding many of the potential races in three-party
// directory protocols"). Every request that can change protocol state
// acquires the target line's transaction slot for its full service time,
// so per-line state transitions are totally ordered at the home. Messages
// travel over the interconnect via callbacks installed by the machine
// assembly, which guarantees point-to-point FIFO ordering; the controller
// relies on that ordering in one place: a dirty eviction (ReqEvict) sent
// by an L2 always arrives before that L2's reply to a later probe of the
// same line, so a writeback probe that finds the line absent can complete
// with the already-merged data.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/config"
	"cohesion/internal/directory"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/fault"
	"cohesion/internal/linetab"
	"cohesion/internal/msg"
	"cohesion/internal/oracle"
	"cohesion/internal/region"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
	"cohesion/internal/trace"
)

// ProbeFunc delivers a probe to a cluster's L2 and routes the reply back.
type ProbeFunc func(cluster int, p msg.Probe, onReply func(msg.ProbeReply))

// Home is one L3 bank plus its directory slice and region-table port.
type Home struct {
	bank  int
	name  string // "home<bank>", precomputed for the trace hot path
	cfg   config.Machine
	q     *event.Queue
	run   *stats.Run
	store *dram.Store
	mem   *dram.Controller
	dir   directory.Directory // nil in SWcc mode
	l3    *cache.Cache        // this bank's tag array (values live in store)

	coarse *region.CoarseTable // nil unless Cohesion with coarse table
	fine   *region.FineTable   // nil unless Cohesion

	probe ProbeFunc

	// faults, when non-nil, injects directory-allocation NACKs (the drop/
	// duplicate/delay decisions live at the machine and network layers).
	faults *fault.Plan

	// orc, when non-nil, is the online coherence oracle; the home reports
	// every grant, atomic, uncached load, writeback merge, and domain
	// transition to it.
	orc *oracle.Oracle

	// busyUntil models the single L3/directory port (Table 3: one R/W
	// port per bank): request processing serializes through it.
	busyUntil event.Cycle

	txns    linetab.Table[*txn]
	waiting linetab.Table[*svc] // FIFO linked list per line, oldest first

	// Free lists for the bank's pooled hot-path records: service records
	// (one per request in flight), transaction slots, and probe-reply
	// staging records. Steady-state traffic recycles all three.
	freeSvc *svc
	freeTx  *txn
	freeRet *probeRet
	freeRec *recall

	// targets is the reusable probe fan-out scratch; probeTargets fills
	// it and every caller iterates the result synchronously before the
	// next probeTargets call can run, so one buffer per bank suffices.
	targets []int

	// serviced/prevServiced record the transaction IDs this bank has already
	// granted (two generations, rotated at servicedGenSize, so the set stays
	// bounded). A request whose ID is present is a duplicate delivery or a
	// spurious retransmission whose original succeeded; it is dropped without
	// touching directory state — re-servicing a write whose requester has
	// since evicted the line would fabricate a stale Modified entry.
	// linetab.Set rather than a map so rotation swaps and clears the two
	// sets in place — the old scheme re-made a 64K-entry map every rotation,
	// the single remaining allocation source on long HWcc runs.
	serviced     linetab.Set
	prevServiced linetab.Set
}

// portOccupancy is how long one request occupies the bank's port.
const portOccupancy = 2

// retryDelay is the backoff used when a flow must wait for an unrelated
// in-flight transaction (pinned directory set, busy transition target).
const retryDelay = 8

// servicedGenSize bounds each generation of the serviced-ID set. Rotation
// is safe because the port occupancy means a bank cannot grant this many
// transactions within any plausible retransmission window.
const servicedGenSize = 1 << 16

// txn is one line's in-flight transaction. Only one exists per line; every
// other request for the line queues behind it. Records are pooled on the
// bank; recycling is safe because every reference goes through the txns
// map (nothing captures a *txn across events).
type txn struct {
	wbArrived bool   // a ReqEvict for the line arrived during the txn
	onWB      func() // resume point for a probe that found the line absent
	nextFree  *txn
}

func (h *Home) allocTxn() *txn {
	t := h.freeTx
	if t == nil {
		return &txn{}
	}
	h.freeTx = t.nextFree
	t.nextFree = nil
	t.wbArrived = false
	t.onWB = nil
	return t
}

// svc is one request's service record: the request, its reply route, and
// the in-flight state its flow threads through the bank's asynchronous
// stages (domain lookup, data access, probe fan-out). The continuation
// funcs are bound once per record, so the steady-state request flows —
// dispatch, grant, upgrade, atomic — run without allocating; per-request
// state is rewritten on reuse. Each flow is linear (one continuation
// outstanding per record at a time), and a record is freed exactly once,
// in finish (or immediately, for the slot-free message kinds), before its
// reply is sent — everything finish needs is read into locals first.
type svc struct {
	h     *Home
	req   msg.Req
	reply func(msg.Resp)

	grant     msg.Grant                       // grant to issue once data arrives
	wasSharer bool                            // upgrade: requester already shared the line
	dirEntry  *directory.Entry                // upgrade: entry being converted
	tableWord addr.Addr                       // region-table word under consultation
	atomicOld uint32                          // atomic: pre-update value
	pending   int                             // outstanding probe replies (fan-in)
	dataCont  func([addr.WordsPerLine]uint32) // resume point for an L3 data miss

	nextWait *svc // FIFO link in the line's waiting list
	nextFree *svc

	processFn     func()
	grantDataFn   func([addr.WordsPerLine]uint32)
	uncLoadFn     func([addr.WordsPerLine]uint32)
	tableReadFn   func()
	tableMissFn   func()
	dataMissFn    func()
	allocDoneFn   func(*directory.Entry)
	nackFn        func()
	grantFreshFn  func()
	upgradeRepFn  func(msg.ProbeReply)
	atomicRetryFn func()
	transDoneFn   func(raced bool)
}

func (h *Home) allocSvc() *svc {
	s := h.freeSvc
	if s == nil {
		s = &svc{h: h}
		s.processFn = func() { s.h.process(s) }
		s.grantDataFn = func(data [addr.WordsPerLine]uint32) {
			s.h.finish(s, msg.Resp{Grant: s.grant, HasData: true, Data: data})
		}
		s.uncLoadFn = func([addr.WordsPerLine]uint32) {
			s.h.run.Edge(trace.EdgeHomeUncachedAtL3)
			v := s.h.store.ReadWord(s.req.Addr)
			if s.h.orc != nil {
				s.h.orc.UncLoadObserved(s.req.Addr, v)
			}
			s.h.finish(s, msg.Resp{Grant: msg.GrantNone, Value: v})
		}
		s.tableReadFn = func() { s.h.tableRead(s) }
		s.tableMissFn = func() {
			if s.h.cfg.TableCachedInL3 {
				s.h.installL3(addr.LineOf(s.tableWord))
			}
			s.h.tableRead(s)
		}
		s.dataMissFn = func() {
			line := s.req.Line
			s.h.installL3(line)
			cont := s.dataCont
			s.dataCont = nil
			cont(s.h.store.ReadLine(line))
		}
		s.allocDoneFn = func(e *directory.Entry) { s.h.allocDone(s, e) }
		s.nackFn = func() {
			s.h.run.NacksSent++
			s.h.run.Edge(trace.EdgeDirCapacityNack)
			s.h.trace("nack (capacity) %v line=%#x cluster=%d", s.req.Kind, uint64(s.req.Line), s.req.Cluster)
			s.h.finish(s, msg.Resp{Grant: msg.GrantNack})
		}
		s.grantFreshFn = func() { s.h.grantFresh(s) }
		s.upgradeRepFn = func(rep msg.ProbeReply) {
			s.h.absorbReplyData(s.req.Line, rep)
			s.pending--
			if s.pending == 0 {
				s.h.upgradeFinish(s)
			}
		}
		s.atomicRetryFn = func() { s.h.atomicFlow(s) }
		s.transDoneFn = func(raced bool) {
			s.h.finish(s, msg.Resp{
				Grant:         msg.GrantNone,
				Value:         s.atomicOld,
				RaceException: raced && s.h.cfg.TrapOnRace,
			})
		}
		return s
	}
	h.freeSvc = s.nextFree
	s.nextFree = nil
	return s
}

func (h *Home) releaseSvc(s *svc) {
	s.reply = nil
	s.dirEntry = nil
	s.dataCont = nil
	s.nextWait = nil
	s.nextFree = h.freeSvc
	h.freeSvc = s
}

// probeRet stages one probe reply back through the bank's port (see
// sendProbe); pooled so the round trip allocates nothing.
type probeRet struct {
	h       *Home
	rep     msg.ProbeReply
	onReply func(msg.ProbeReply)

	recvFn   func(msg.ProbeReply)
	stageFn  func()
	nextFree *probeRet
}

func (h *Home) allocProbeRet() *probeRet {
	pr := h.freeRet
	if pr == nil {
		pr = &probeRet{h: h}
		pr.recvFn = func(rep msg.ProbeReply) {
			pr.rep = rep
			pr.h.stage(pr.stageFn)
		}
		pr.stageFn = func() {
			onReply, rep := pr.onReply, pr.rep
			pr.onReply = nil
			pr.nextFree = pr.h.freeRet
			pr.h.freeRet = pr
			onReply(rep)
		}
		return pr
	}
	h.freeRet = pr.nextFree
	pr.nextFree = nil
	return pr
}

// recall is the pooled continuation record for one recallEntry flow: a
// writeback round trip (Modified) or an invalidation fan-out with a
// pending count (Shared). The reply funcs are bound once per record,
// like svc's, so recalls — the protocol's hottest eviction and
// domain-transition path — run without allocating. finishFn fires
// exactly once per life (it may be parked on a txn's onWB hook while an
// in-flight dirty eviction drains) and releases the record before
// running the caller's continuation, which may start the next recall.
type recall struct {
	h        *Home
	line     addr.Line
	cont     func()
	pending  int
	nextFree *recall

	wbRepFn  func(msg.ProbeReply)
	invRepFn func(msg.ProbeReply)
	finishFn func()
}

func (h *Home) allocRecall(line addr.Line, cont func()) *recall {
	r := h.freeRec
	if r == nil {
		r = &recall{h: h}
		r.finishFn = func() {
			r.h.dir.Remove(r.line)
			cont := r.cont
			r.h.releaseRecall(r)
			cont()
		}
		r.wbRepFn = func(rep msg.ProbeReply) {
			if rep.Kind == msg.ReplyData {
				r.h.run.Edge(trace.EdgeHomeRecallWBData)
				r.h.mergeToL3(r.line, rep.Mask, rep.Data)
				r.finishFn()
				return
			}
			// Line absent at the owner: the dirty eviction is (or was) in
			// flight. Link FIFO ordering means it normally arrived already.
			r.h.run.Edge(trace.EdgeHomeRecallWBAbsent)
			t, _ := r.h.txns.Get(r.line)
			if t != nil && !t.wbArrived {
				r.h.trace("recall line=%#x waiting for writeback", uint64(r.line))
				t.onWB = r.finishFn
				return
			}
			r.finishFn()
		}
		r.invRepFn = func(rep msg.ProbeReply) {
			r.h.absorbReplyData(r.line, rep)
			r.pending--
			if r.pending == 0 {
				r.finishFn()
			}
		}
	} else {
		h.freeRec = r.nextFree
		r.nextFree = nil
	}
	r.line = line
	r.cont = cont
	return r
}

func (h *Home) releaseRecall(r *recall) {
	r.cont = nil
	r.nextFree = h.freeRec
	h.freeRec = r
}

// NewHome builds the controller for one bank. dir is nil for SWcc-only
// machines; coarse/fine are nil unless the machine runs Cohesion (coarse
// additionally nil when the coarse-table ablation is off).
func NewHome(bank int, cfg config.Machine, q *event.Queue, run *stats.Run,
	store *dram.Store, mem *dram.Controller, dir directory.Directory,
	coarse *region.CoarseTable, fine *region.FineTable, probe ProbeFunc,
	faults *fault.Plan) *Home {
	return &Home{
		bank:   bank,
		name:   fmt.Sprintf("home%d", bank),
		cfg:    cfg,
		q:      q,
		run:    run,
		store:  store,
		mem:    mem,
		dir:    dir,
		l3:     cache.New(cfg.L3BankSize(), cfg.L3Assoc),
		coarse: coarse,
		fine:   fine,
		probe:  probe,
		faults: faults,
	}
}

// SetOracle attaches the online coherence oracle.
func (h *Home) SetOracle(o *oracle.Oracle) { h.orc = o }

// site names this bank in diagnostics and traces.
func (h *Home) site() string { return h.name }

// alreadyServiced reports whether a transaction ID has been granted.
func (h *Home) alreadyServiced(id uint64) bool {
	return h.serviced.Has(id) || h.prevServiced.Has(id)
}

// markServiced records a granted transaction ID, rotating generations to
// keep the set bounded. Rotation swaps the two sets and clears the stale
// one in place, so it allocates nothing once both have reached size.
func (h *Home) markServiced(id uint64) {
	if h.serviced.Len() >= servicedGenSize {
		h.serviced, h.prevServiced = h.prevServiced, h.serviced
		h.serviced.Clear()
	}
	h.serviced.Add(id)
}

// dropDup discards a duplicate delivery (or spurious retransmission whose
// original already succeeded). No reply is sent: the requester either has
// its grant already or will discard the extra response as stale.
func (h *Home) dropDup(req msg.Req) {
	h.run.DupsDropped++
	h.run.Edge(trace.EdgeRecHomeDupDrop)
	h.trace("dup-drop %v line=%#x cluster=%d id=%#x", req.Kind, uint64(req.Line), req.Cluster, req.ID)
}

// Directory exposes the bank's directory for occupancy sampling and
// invariant checks. It is nil in SWcc mode.
func (h *Home) Directory() directory.Directory { return h.dir }

// Pending reports whether the bank has in-flight transactions or queued
// requests (used by the machine's quiescence check).
func (h *Home) Pending() bool { return h.txns.Len() > 0 || h.waiting.Len() > 0 }

// StuckReport describes the bank's in-flight and queued transactions —
// line, waiter count, and the directory's view of the line — for deadlock
// diagnostics. Returns nil when idle. Lines are sorted so the report is
// deterministic.
func (h *Home) StuckReport(now event.Cycle) []string {
	if !h.Pending() {
		return nil
	}
	seen := make(map[addr.Line]bool, h.txns.Len()+h.waiting.Len())
	var lines []addr.Line
	h.txns.ForEach(func(line addr.Line, _ *txn) {
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	})
	h.waiting.ForEach(func(line addr.Line, _ *svc) {
		if !seen[line] {
			seen[line] = true
			lines = append(lines, line)
		}
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	out := make([]string, 0, len(lines))
	for _, line := range lines {
		var b strings.Builder
		fmt.Fprintf(&b, "home%d: line=%#x", h.bank, uint64(line.Base()))
		if t, _ := h.txns.Get(line); t != nil {
			b.WriteString(" txn in flight")
			if t.onWB != nil {
				b.WriteString(" (awaiting writeback)")
			}
		}
		if n := h.waitDepth(line); n > 0 {
			fmt.Fprintf(&b, " %d queued", n)
		}
		if h.dir != nil {
			if e := h.dir.Lookup(line); e != nil {
				fmt.Fprintf(&b, " dir{state=%v owner=%d sharers=%d pinned=%v}",
					e.State, e.Owner, e.Sharers.Count(), e.Pinned)
			} else {
				b.WriteString(" dir{no entry}")
			}
		}
		out = append(out, b.String())
	}
	return out
}

// HandleReq is the entry point for a request arriving from the network.
// reply, when non-nil, routes the response back to the requesting L2.
func (h *Home) HandleReq(req msg.Req, reply func(msg.Resp)) {
	s := h.allocSvc()
	s.req, s.reply = req, reply
	h.stage(s.processFn)
}

// stage serializes an arriving message through the bank's single port and
// charges the L3 pipeline latency before fn runs. Port slots are granted
// in arrival order, so two messages from the same cluster — which the
// network delivers in send order — are also processed in send order.
func (h *Home) stage(fn func()) {
	start := h.q.Now()
	if h.busyUntil > start {
		start = h.busyUntil
	}
	if m := h.run.Metrics; m != nil {
		m.HomePortWait.Observe(uint64(start - h.q.Now()))
	}
	h.busyUntil = start + portOccupancy
	h.q.At(start+event.Cycle(h.cfg.L3Latency), fn)
}

// trace records a home-side protocol event in the run's trace ring and
// structured sink.
func (h *Home) trace(format string, args ...any) {
	if !h.run.Tracing() {
		return
	}
	h.run.Emit(stats.TraceEntry{Cycle: uint64(h.q.Now()), Site: h.name, Event: fmt.Sprintf(format, args...)})
}

func (h *Home) process(s *svc) {
	req := s.req
	switch req.Kind {
	case msg.ReqEvict:
		h.releaseSvc(s)
		h.handleEvict(req)
	case msg.ReqSWFlush:
		reply := s.reply
		h.releaseSvc(s)
		h.mergeToL3(req.Line, req.Mask, req.Data)
		if reply != nil {
			reply(msg.Resp{Grant: msg.GrantNone})
		}
	case msg.ReqReadRel:
		h.releaseSvc(s)
		h.handleReadRel(req)
	default:
		// Reads, writes, instruction fetches, atomics, and uncached ops all
		// serialize through the line's transaction slot.
		if req.ID != 0 && h.alreadyServiced(req.ID) {
			h.releaseSvc(s)
			h.dropDup(req)
			return
		}
		if _, busy := h.txns.Get(req.Line); busy {
			if m := h.run.Metrics; m != nil {
				m.HomeQueueDepth.Observe(uint64(h.waitDepth(req.Line)))
			}
			h.enqueueWaiter(s)
			return
		}
		h.start(s)
	}
}

// start opens the line's transaction slot and runs the request. Callers
// must have checked that no transaction is in flight.
func (h *Home) start(s *svc) {
	req := s.req
	line := req.Line
	if req.ID != 0 && h.alreadyServiced(req.ID) {
		// A duplicate that queued behind its own original: the original has
		// completed (and marked the ID) by the time the queue drains here.
		h.releaseSvc(s)
		h.dropDup(req)
		h.drainWaiting(line)
		return
	}
	if _, busy := h.txns.Get(line); busy {
		panic(simerr.Invariant(uint64(h.q.Now()), h.site(), uint64(line.Base()),
			"transaction collision servicing %v from cluster %d", req.Kind, req.Cluster))
	}
	h.txns.Put(line, h.allocTxn())
	if h.run.Tracing() {
		h.trace("start %v line=%#x cluster=%d", req.Kind, uint64(line), req.Cluster)
	}
	switch req.Kind {
	case msg.ReqRead, msg.ReqWrite, msg.ReqInstr:
		h.dispatch(s)
	case msg.ReqAtomic, msg.ReqUncStore:
		h.atomicFlow(s)
	case msg.ReqUncLoad:
		h.dataAccess(s, s.uncLoadFn)
	default:
		panic(simerr.Invariant(uint64(h.q.Now()), h.site(), uint64(line.Base()),
			"unhandled request kind %v from cluster %d", req.Kind, req.Cluster))
	}
}

// finish completes a request's service: it stamps and sends the response,
// frees the service record, and retires the line's transaction.
func (h *Home) finish(s *svc, resp msg.Resp) {
	req, reply := s.req, s.reply
	resp.ID = req.ID // echo so the requester can discard late aliases
	if h.run.Tracing() {
		h.trace("done %v line=%#x cluster=%d grant=%v", req.Kind, uint64(req.Line), req.Cluster, resp.Grant)
	}
	if h.orc != nil {
		// Value/domain/ownership checks happen at grant time, the same
		// event that read the store, so the comparison cannot race
		// in-flight merges or transitions.
		h.orc.GrantObserved(req, resp)
	}
	if req.ID != 0 && resp.Grant != msg.GrantNack {
		// NACKed transactions are NOT marked: the requester will
		// retransmit the same ID and must be serviced then.
		h.markServiced(req.ID)
	}
	h.releaseSvc(s)
	// Send the response BEFORE retiring the transaction: retiring
	// drains the next queued request, which may immediately probe the
	// cluster just granted — the grant must win the (FIFO) link or the
	// probe would observe the line before its fill arrives.
	if reply != nil {
		reply(resp)
	}
	h.completeTxn(req.Line)
}

// enqueueWaiter appends the service record to its line's FIFO wait list.
func (h *Home) enqueueWaiter(s *svc) {
	s.nextWait = nil
	head, ok := h.waiting.Get(s.req.Line)
	if !ok {
		h.waiting.Put(s.req.Line, s)
		return
	}
	for head.nextWait != nil {
		head = head.nextWait
	}
	head.nextWait = s
}

// waitDepth counts the requests queued on a line.
func (h *Home) waitDepth(line addr.Line) int {
	n := 0
	s, _ := h.waiting.Get(line)
	for ; s != nil; s = s.nextWait {
		n++
	}
	return n
}

// completeTxn retires the line's transaction, unpins its directory entry,
// and synchronously starts the next queued request if any.
func (h *Home) completeTxn(line addr.Line) {
	if h.dir != nil {
		if e := h.dir.Lookup(line); e != nil {
			e.Pinned = false
		}
	}
	if t, _ := h.txns.Get(line); t != nil {
		h.txns.Delete(line)
		t.onWB = nil
		t.nextFree = h.freeTx
		h.freeTx = t
	}
	h.drainWaiting(line)
}

// drainWaiting starts the next request queued on the line, if any. The
// line's transaction slot must be free.
func (h *Home) drainWaiting(line addr.Line) {
	s, _ := h.waiting.Get(line)
	if s == nil {
		return
	}
	if s.nextWait == nil {
		h.waiting.Delete(line)
	} else {
		h.waiting.Put(line, s.nextWait)
		s.nextWait = nil
	}
	h.start(s)
}

// handleEvict merges a dirty writeback (no transaction slot needed: the
// merge is value-safe at any time, and directory bookkeeping is guarded).
func (h *Home) handleEvict(req msg.Req) {
	h.mergeToL3(req.Line, req.Mask, req.Data)
	if t, _ := h.txns.Get(req.Line); t != nil {
		// An in-flight transaction may be waiting for exactly this data.
		h.run.Edge(trace.EdgeHomeEvictDuringTxn)
		t.wbArrived = true
		if t.onWB != nil {
			cont := t.onWB
			t.onWB = nil
			cont()
		}
		return
	}
	h.run.Edge(trace.EdgeHomeEvictMerge)
	if h.dir != nil {
		if e := h.dir.Lookup(req.Line); e != nil && e.State == directory.Modified && e.Owner == req.Cluster {
			h.dir.Remove(req.Line)
		}
	}
}

// handleReadRel drops a sharer after a clean eviction; the entry is
// deallocated when the sharer count reaches zero (paper §3.2). Stale
// releases (entry already evicted or re-owned) are ignored.
func (h *Home) handleReadRel(req msg.Req) {
	if h.dir == nil {
		return
	}
	e := h.dir.Lookup(req.Line)
	if e == nil || e.State != directory.Shared {
		return
	}
	if !e.Sharers.Remove(req.Cluster) {
		return // stale release: the entry was re-created without this sharer
	}
	if e.Sharers.Empty() && !e.Pinned && !e.Broadcast {
		h.dir.Remove(req.Line)
		h.run.Edge(trace.EdgeHomeReadRelDealloc)
		return
	}
	h.run.Edge(trace.EdgeHomeReadRelSharer)
}

// addSharer records a sharer on a directory entry, marking the Dir4B
// pointer-overflow edge when the broadcast bit is newly set.
func (h *Home) addSharer(e *directory.Entry, cluster int) {
	if directory.AddSharer(h.dir, e, cluster) {
		h.run.Edge(trace.EdgeDirOverflowBcast)
	}
}

// dispatch services a read/write/ifetch holding the line's txn slot.
func (h *Home) dispatch(s *svc) {
	if h.dir != nil {
		if e := h.dir.Lookup(s.req.Line); e != nil {
			e.Pinned = true
			h.dispatchHWHit(s, e)
			return
		}
	}
	// Directory miss: decide the line's coherence domain.
	h.domainOf(s)
}

// domainDecided resumes a dispatched directory miss once the line's
// coherence domain is known (domainOf may have gone to the region table).
func (h *Home) domainDecided(s *svc, sw bool) {
	if sw {
		h.run.Edge(trace.EdgeCohGrantIncoherent)
		s.grant = msg.GrantIncoherent
		h.dataAccess(s, s.grantDataFn)
		return
	}
	h.grantFresh(s)
}

// grantFresh allocates a directory entry for an untracked HWcc line and
// grants the request.
func (h *Home) grantFresh(s *svc) {
	req := s.req
	if h.faults != nil && req.ID != 0 && h.faults.NackAlloc() {
		h.run.NacksSent++
		h.run.Edge(trace.EdgeRecNackInjected)
		h.trace("nack (injected) %v line=%#x cluster=%d", req.Kind, uint64(req.Line), req.Cluster)
		h.finish(s, msg.Resp{Grant: msg.GrantNack})
		return
	}
	var nack func()
	if h.cfg.DirNackOnCapacity && req.ID != 0 {
		nack = s.nackFn
	}
	h.allocEntry(req.Line, nack, s.allocDoneFn)
}

// allocDone finishes grantFresh once a directory entry is allocated.
func (h *Home) allocDone(s *svc, e *directory.Entry) {
	req := s.req
	if req.Kind == msg.ReqWrite {
		e.State = directory.Modified
		e.Owner = req.Cluster
		s.grant = msg.GrantModified
		h.run.Edge(trace.EdgeHomeWriteMissAllocM)
	} else {
		e.State = directory.Shared
		s.grant = msg.GrantShared
		h.run.Edge(trace.EdgeHomeReadMissAllocS)
	}
	h.addSharer(e, req.Cluster)
	h.dataAccess(s, s.grantDataFn)
}

// dispatchHWHit services a request that hit a (now pinned) directory entry.
func (h *Home) dispatchHWHit(s *svc, e *directory.Entry) {
	req := s.req
	switch req.Kind {
	case msg.ReqRead, msg.ReqInstr:
		if e.State == directory.Shared {
			h.run.Edge(trace.EdgeHomeReadHitShared)
			h.addSharer(e, req.Cluster)
			s.grant = msg.GrantShared
			h.dataAccess(s, s.grantDataFn)
			return
		}
		// Modified in another cluster: recall the dirty data, then grant
		// fresh. (The owner is invalidated rather than downgraded; with the
		// L3 as the communication point this costs one re-fetch if the old
		// owner reads again — the paper's rationale for omitting E/O.)
		h.run.Edge(trace.EdgeHomeReadRecallsM)
		h.recallEntry(req.Line, e, s.grantFreshFn)

	case msg.ReqWrite:
		if e.State == directory.Modified {
			if e.Owner == req.Cluster {
				// The requester already owns the line: a duplicate or
				// retransmission that slipped past dedup. Re-grant in place —
				// recalling would probe the requester for its own writeback.
				h.trace("re-grant M line=%#x cluster=%d", uint64(req.Line), req.Cluster)
				s.grant = msg.GrantModified
				h.dataAccess(s, s.grantDataFn)
				return
			}
			// Owned dirty by another cluster.
			h.run.Edge(trace.EdgeHomeWriteRecallsM)
			h.recallEntry(req.Line, e, s.grantFreshFn)
			return
		}
		// Shared: invalidate every other sharer, then grant Modified.
		s.dirEntry = e
		s.wasSharer = e.Sharers.Has(req.Cluster)
		targets := h.probeTargets(e, req.Cluster)
		if len(targets) == 0 {
			h.upgradeFinish(s)
			return
		}
		h.run.Edge(trace.EdgeHomeUpgradeInv)
		s.pending = len(targets)
		for _, c := range targets {
			h.sendProbe(c, msg.Probe{Kind: msg.ProbeInv, Line: req.Line}, s.upgradeRepFn)
		}

	default:
		panic(simerr.Invariant(uint64(h.q.Now()), h.site(), uint64(req.Line.Base()),
			"dispatchHWHit on non-RWI request %v", req.Kind))
	}
}

// upgradeFinish converts a Shared entry to Modified for the upgrading
// requester once every other sharer has been invalidated.
func (h *Home) upgradeFinish(s *svc) {
	e := s.dirEntry
	req := s.req
	s.dirEntry = nil
	e.State = directory.Modified
	e.Owner = req.Cluster
	e.Broadcast = false
	e.Sharers = directory.Sharers{}
	h.addSharer(e, req.Cluster)
	if s.wasSharer {
		h.run.Edge(trace.EdgeHomeUpgradeDataless)
		h.finish(s, msg.Resp{Grant: msg.GrantModified})
		return
	}
	h.run.Edge(trace.EdgeHomeUpgradeData)
	s.grant = msg.GrantModified
	h.dataAccess(s, s.grantDataFn)
}

// atomicFlow performs an uncached atomic or uncached store at the L3. If
// the word's line is hardware-tracked it is recalled first so the
// operation observes the globally latest value. Writes that land in the
// fine-grain region table are snooped: changed bits trigger coherence
// domain transitions, and the requester is not acknowledged until they
// complete (paper §3.6).
func (h *Home) atomicFlow(s *svc) {
	req := s.req
	if h.dir != nil {
		if e := h.dir.Lookup(req.Line); e != nil {
			e.Pinned = true
			h.run.Edge(trace.EdgeHomeAtomicRecall)
			h.recallEntry(req.Line, e, s.atomicRetryFn)
			return
		}
	}
	old := h.store.ReadWord(req.Addr)
	var next uint32
	if req.Kind == msg.ReqUncStore {
		next = req.Operand
	} else {
		next = req.Op.Apply(old, req.Operand, req.Operand2)
	}
	// Observe before the write: the oracle's lazy shadow of this line must
	// capture the pre-update store contents.
	if h.orc != nil {
		h.orc.AtomicObserved(req.Addr, old, next)
	}
	h.store.WriteWord(req.Addr, next)
	h.touchL3Word(req.Addr)

	if h.fine != nil && region.InTableRange(req.Addr) && old != next {
		// The write went through the store directly; drop the host-side
		// region-lookup caches layered over the table.
		h.fine.Invalidate()
		s.atomicOld = old
		h.transitionChanged(req.Addr, old^next, next, s.transDoneFn)
		return
	}
	h.finish(s, msg.Resp{Grant: msg.GrantNone, Value: old})
}

// recallEntry tears down a directory entry under the line's held txn slot:
// sharers are invalidated (Shared) or the owner's dirty data written back
// (Modified), the entry is removed, and cont runs. The line's data ends up
// current in the L3/store and absent from every L2 — exactly the paper's
// Figure 7(a) right-hand states.
func (h *Home) recallEntry(line addr.Line, e *directory.Entry, cont func()) {
	if h.run.Tracing() {
		h.trace("recall line=%#x state=%v owner=%d", uint64(line), e.State, e.Owner)
	}
	e.Pinned = true
	if e.State == directory.Modified {
		r := h.allocRecall(line, cont)
		h.sendProbe(e.Owner, msg.Probe{Kind: msg.ProbeWB, Line: line}, r.wbRepFn)
		return
	}
	targets := h.probeTargets(e, -1)
	if len(targets) == 0 {
		h.dir.Remove(line)
		cont()
		return
	}
	h.run.Edge(trace.EdgeHomeRecallInv)
	r := h.allocRecall(line, cont)
	r.pending = len(targets)
	for _, c := range targets {
		h.sendProbe(c, msg.Probe{Kind: msg.ProbeInv, Line: line}, r.invRepFn)
	}
}

// absorbReplyData merges dirty data carried on a probe reply (an L2 may
// answer an invalidation with dirty words if its copy was modified).
func (h *Home) absorbReplyData(line addr.Line, rep msg.ProbeReply) {
	if rep.Kind == msg.ReplyData && rep.Mask != 0 {
		h.mergeToL3(line, rep.Mask, rep.Data)
	}
}

// allocEntry obtains a directory entry for line, evicting a victim entry
// (invalidating its sharers — the directory is inclusive of the L2s) when
// the set is full. The fresh entry is pinned; the caller's txn completion
// unpins it. nack, when non-nil, is invoked instead of stalling when every
// candidate way is pinned by in-flight transactions (capacity NACK); when
// nil the allocation silently retries until a way drains.
func (h *Home) allocEntry(line addr.Line, nack func(), cont func(*directory.Entry)) {
	if h.dir.HasRoom(line) {
		e := h.dir.Allocate(line)
		e.Pinned = true
		cont(e)
		return
	}
	v := h.dir.Victim(line)
	if v == nil {
		// Every candidate way is pinned by an in-flight transaction.
		if nack != nil {
			nack()
			return
		}
		// Retry once one drains.
		h.run.Edge(trace.EdgeDirAllocRetryPinned)
		h.q.After(retryDelay, func() { h.allocEntry(line, nack, cont) })
		return
	}
	victimLine := v.Line
	if _, busy := h.txns.Get(victimLine); busy {
		// An unpinned entry whose line has a transaction should not exist,
		// but never race it: back off and retry.
		h.q.After(retryDelay, func() { h.allocEntry(line, nack, cont) })
		return
	}
	h.run.DirEvictions++
	h.run.Edge(trace.EdgeDirCapacityEvict)
	h.txns.Put(victimLine, h.allocTxn())
	h.recallEntry(victimLine, v, func() {
		h.completeTxn(victimLine)
		h.allocEntry(line, nack, cont)
	})
}

// probeTargets lists the clusters to probe for an entry, excluding skip
// (-1 to exclude none). Overflowed Dir4B entries probe every cluster.
// The returned slice is the bank's reusable scratch: callers iterate it
// synchronously (the fan-out loop runs to completion before any other
// bank code can call probeTargets again) and sendProbe does not retain it.
func (h *Home) probeTargets(e *directory.Entry, skip int) []int {
	out := h.targets[:0]
	if e.Broadcast {
		h.run.DirBroadcasts++
		h.run.Edge(trace.EdgeDirBroadcastProbe)
		for c := 0; c < h.cfg.Clusters; c++ {
			if c != skip {
				out = append(out, c)
			}
		}
		h.targets = out
		return out
	}
	for wi, w := range e.Sharers {
		for ; w != 0; w &= w - 1 {
			if c := wi*64 + bits.TrailingZeros64(w); c != skip {
				out = append(out, c)
			}
		}
	}
	h.targets = out
	return out
}

// sendProbe routes a probe to a cluster. The reply is staged back through
// the bank's port via a pooled probeRet record: a probe reply is a message
// arriving at the bank like any other and must serialize through the port
// behind messages that arrived first. Without this, a reply can overtake
// the same cluster's earlier flush or eviction inside the bank — the
// network delivered both in send order, but the flush was still sitting in
// the port pipeline — and a recall would then grant pre-writeback data.
func (h *Home) sendProbe(cluster int, p msg.Probe, onReply func(msg.ProbeReply)) {
	h.run.ProbesSent++
	if h.run.Tracing() {
		h.trace("%v line=%#x -> cl%d", p.Kind, uint64(p.Line), cluster)
	}
	pr := h.allocProbeRet()
	pr.onReply = onReply
	h.probe(cluster, p, pr.recvFn)
}
