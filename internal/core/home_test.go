package core

import (
	"reflect"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/directory"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/fault"
	"cohesion/internal/linetab"
	"cohesion/internal/msg"
	"cohesion/internal/region"
	"cohesion/internal/stats"
)

// harness drives one Home directly, with probes intercepted so tests can
// inspect them and reply at chosen times — the races the protocol must
// tolerate are reproduced exactly.
type harness struct {
	t     *testing.T
	q     *event.Queue
	run   *stats.Run
	store *dram.Store
	home  *Home
	cfg   config.Machine

	probes []*probeRec
	auto   func(p msg.Probe, cluster int) *msg.ProbeReply // nil = manual
}

type probeRec struct {
	cluster int
	probe   msg.Probe
	reply   func(msg.ProbeReply)
	replied bool
}

// respBox captures a response to an injected request.
type respBox struct {
	done bool
	resp msg.Resp
}

func newHarness(t *testing.T, mode config.Mode, kind config.DirKind, entries, assoc, clusters int) *harness {
	t.Helper()
	cfg := config.Scaled(clusters)
	cfg.Clusters = clusters
	cfg.L3Banks = 1
	cfg.DRAMChannels = 1
	cfg.L3Size = 32 << 10
	cfg.Mode = mode
	cfg.Directory = kind
	cfg.DirEntriesPerBank = entries
	cfg.DirAssoc = assoc

	h := &harness{
		t:     t,
		q:     &event.Queue{},
		run:   &stats.Run{},
		store: dram.NewStore(),
		cfg:   cfg,
	}
	mem := dram.NewController(h.q, h.run, 1, 1, cfg.DRAMLatency, cfg.DRAMCyclesPerLine)
	var dir directory.Directory
	switch kind {
	case config.DirInfinite:
		dir = directory.NewInfinite()
	case config.DirSparse:
		dir = directory.NewSparse(entries, assoc, false)
	case config.DirLimited4B:
		dir = directory.NewSparse(entries, assoc, true)
	}
	var coarse *region.CoarseTable
	var fine *region.FineTable
	if mode == config.Cohesion {
		coarse = &region.CoarseTable{}
		fine = region.NewFineTable(h.store, 1)
	}
	probe := func(cluster int, p msg.Probe, onReply func(msg.ProbeReply)) {
		rec := &probeRec{cluster: cluster, probe: p}
		rec.reply = func(rep msg.ProbeReply) {
			if rec.replied {
				t.Fatalf("double reply to probe %v", p)
			}
			rec.replied = true
			rep.Cluster = cluster
			rep.Line = p.Line
			onReply(rep)
		}
		h.probes = append(h.probes, rec)
		if h.auto != nil {
			if rep := h.auto(p, cluster); rep != nil {
				h.q.After(2, func() { rec.reply(*rep) })
			}
		}
	}
	h.home = NewHome(0, cfg, h.q, h.run, h.store, mem, dir, coarse, fine, probe, nil)
	return h
}

func (h *harness) send(req msg.Req) *respBox {
	box := &respBox{}
	h.home.HandleReq(req, func(r msg.Resp) {
		if box.done {
			h.t.Fatal("double response")
		}
		box.done = true
		box.resp = r
	})
	return box
}

// sendNoReply injects a fire-and-forget message (evictions, releases).
func (h *harness) sendNoReply(req msg.Req) {
	h.home.HandleReq(req, nil)
}

func (h *harness) runAll() {
	for h.q.Step() {
	}
}

// runFor advances bounded simulated time; used when a retry loop keeps the
// queue non-empty until the test intervenes.
func (h *harness) runFor(cycles event.Cycle) {
	for end := h.q.Now() + cycles; h.q.Now() < end && h.q.Step(); {
	}
}

func (h *harness) dir() directory.Directory { return h.home.Directory() }

func rd(cluster int, line addr.Line) msg.Req {
	return msg.Req{Kind: msg.ReqRead, Cluster: cluster, Line: line}
}
func wr(cluster int, line addr.Line) msg.Req {
	return msg.Req{Kind: msg.ReqWrite, Cluster: cluster, Line: line}
}

const testLine = addr.Line(0x1000000)

func TestHomeReadAllocatesShared(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.store.WriteWord(testLine.Base(), 42)
	box := h.send(rd(0, testLine))
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantShared || !box.resp.HasData {
		t.Fatalf("resp = %+v", box.resp)
	}
	if box.resp.Data[0] != 42 {
		t.Fatalf("data = %d", box.resp.Data[0])
	}
	e := h.dir().Lookup(testLine)
	if e == nil || e.State != directory.Shared || !e.Sharers.Has(0) || e.Pinned {
		t.Fatalf("entry = %+v", e)
	}
}

func TestHomeSecondReaderJoins(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(rd(0, testLine))
	h.runAll()
	box := h.send(rd(1, testLine))
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantShared {
		t.Fatal("second reader not granted")
	}
	e := h.dir().Lookup(testLine)
	if e.Sharers.Count() != 2 {
		t.Fatalf("sharers = %d", e.Sharers.Count())
	}
	if h.run.ProbesSent != 0 {
		t.Fatal("read sharing sent probes")
	}
}

func TestHomeWriteUpgradesAndInvalidatesOthers(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(rd(0, testLine))
	h.send(rd(1, testLine))
	h.runAll()

	box := h.send(wr(0, testLine)) // upgrade; cluster 1 must be probed
	h.runAll()
	if box.done {
		t.Fatal("granted before invalidation ack")
	}
	if len(h.probes) != 1 || h.probes[0].cluster != 1 || h.probes[0].probe.Kind != msg.ProbeInv {
		t.Fatalf("probes = %+v", h.probes)
	}
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyAck})
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantModified {
		t.Fatalf("resp = %+v", box.resp)
	}
	if box.resp.HasData {
		t.Fatal("upgrade of a sharer must not resend data")
	}
	e := h.dir().Lookup(testLine)
	if e.State != directory.Modified || e.Owner != 0 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestHomeWriteMissGetsData(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	box := h.send(wr(1, testLine))
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantModified || !box.resp.HasData {
		t.Fatalf("resp = %+v", box.resp)
	}
}

func TestHomeReadRecallsModified(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(wr(0, testLine))
	h.runAll()

	box := h.send(rd(1, testLine))
	h.runAll()
	if box.done {
		t.Fatal("granted before writeback")
	}
	if len(h.probes) != 1 || h.probes[0].probe.Kind != msg.ProbeWB || h.probes[0].cluster != 0 {
		t.Fatalf("probes = %+v", h.probes)
	}
	var data [addr.WordsPerLine]uint32
	data[3] = 777
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyData, Mask: 1 << 3, Data: data})
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantShared || box.resp.Data[3] != 777 {
		t.Fatalf("resp = %+v", box.resp)
	}
	if h.store.ReadWord(testLine.Base()+12) != 777 {
		t.Fatal("writeback not merged")
	}
}

// The eviction race: a ProbeWB finds the line absent because the owner's
// dirty eviction is in flight. Link FIFO means the eviction arrives first
// in the real machine; the harness reproduces both orders.
func TestHomeRecallEvictionRaceEvictFirst(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(wr(0, testLine))
	h.runAll()

	box := h.send(rd(1, testLine)) // triggers ProbeWB to cluster 0
	h.runAll()
	// The eviction arrives while the probe is in flight...
	var data [addr.WordsPerLine]uint32
	data[0] = 555
	h.sendNoReply(msg.Req{Kind: msg.ReqEvict, Cluster: 0, Line: testLine, Mask: 1, Data: data})
	h.runAll()
	// ...then the probe reply reports the line gone.
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyAck})
	h.runAll()
	if !box.done || box.resp.Data[0] != 555 {
		t.Fatalf("resp = %+v (done=%v)", box.resp, box.done)
	}
}

func TestHomeRecallEvictionRaceAckFirst(t *testing.T) {
	// Defensive path: the ack arrives before the eviction (cannot happen
	// over FIFO links, but the controller must not wedge if it does).
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(wr(0, testLine))
	h.runAll()
	box := h.send(rd(1, testLine))
	h.runAll()
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyAck}) // line gone, no data
	h.runAll()
	if box.done {
		t.Fatal("completed without the dirty data")
	}
	var data [addr.WordsPerLine]uint32
	data[0] = 99
	h.sendNoReply(msg.Req{Kind: msg.ReqEvict, Cluster: 0, Line: testLine, Mask: 1, Data: data})
	h.runAll()
	if !box.done || box.resp.Data[0] != 99 {
		t.Fatalf("resp = %+v (done=%v)", box.resp, box.done)
	}
}

func TestHomeRequestsQueuePerLine(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 4)
	h.send(wr(0, testLine))
	h.runAll()

	// Two readers arrive while the line is owned; they serialize behind
	// the recall.
	box1 := h.send(rd(1, testLine))
	box2 := h.send(rd(2, testLine))
	h.runAll()
	if box1.done || box2.done {
		t.Fatal("granted before recall completed")
	}
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyData, Mask: 0})
	h.runAll()
	if !box1.done || !box2.done {
		t.Fatalf("queued requests not drained: %v %v", box1.done, box2.done)
	}
	e := h.dir().Lookup(testLine)
	if e.State != directory.Shared || !e.Sharers.Has(1) || !e.Sharers.Has(2) {
		t.Fatalf("entry = %+v", e)
	}
}

func TestHomeEvictRemovesOwnership(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(wr(0, testLine))
	h.runAll()
	var data [addr.WordsPerLine]uint32
	data[1] = 5
	h.sendNoReply(msg.Req{Kind: msg.ReqEvict, Cluster: 0, Line: testLine, Mask: 2, Data: data})
	h.runAll()
	if h.dir().Lookup(testLine) != nil {
		t.Fatal("entry survived owner eviction")
	}
	if h.store.ReadWord(testLine.Base()+4) != 5 {
		t.Fatal("eviction data lost")
	}
}

func TestHomeReadReleaseBookkeeping(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(rd(0, testLine))
	h.send(rd(1, testLine))
	h.runAll()
	h.sendNoReply(msg.Req{Kind: msg.ReqReadRel, Cluster: 0, Line: testLine})
	h.runAll()
	e := h.dir().Lookup(testLine)
	if e == nil || e.Sharers.Has(0) || !e.Sharers.Has(1) {
		t.Fatalf("entry = %+v", e)
	}
	h.sendNoReply(msg.Req{Kind: msg.ReqReadRel, Cluster: 1, Line: testLine})
	h.runAll()
	if h.dir().Lookup(testLine) != nil {
		t.Fatal("entry not deallocated at zero sharers")
	}
	// Stale releases (entry gone) are ignored.
	h.sendNoReply(msg.Req{Kind: msg.ReqReadRel, Cluster: 1, Line: testLine})
	h.runAll()
}

func TestHomeSparseEvictionRecallsVictim(t *testing.T) {
	// One entry total: the second line's allocation must tear down the
	// first line's entry, invalidating its sharer.
	h := newHarness(t, config.HWcc, config.DirSparse, 1, 1, 2)
	h.send(rd(0, testLine))
	h.runAll()

	other := testLine + 1
	box := h.send(rd(1, other))
	h.runAll()
	if box.done {
		t.Fatal("granted before victim recall")
	}
	if len(h.probes) != 1 || h.probes[0].probe.Line != testLine || h.probes[0].probe.Kind != msg.ProbeInv {
		t.Fatalf("probes = %+v", h.probes)
	}
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyAck})
	h.runAll()
	if !box.done {
		t.Fatal("allocation did not proceed after victim recall")
	}
	if h.dir().Lookup(testLine) != nil || h.dir().Lookup(other) == nil {
		t.Fatal("directory contents wrong after eviction")
	}
	if h.run.DirEvictions != 1 {
		t.Fatalf("DirEvictions = %d", h.run.DirEvictions)
	}
}

func TestHomeAllocRetriesWhilePinned(t *testing.T) {
	// The only candidate entry is pinned by an in-flight transaction; the
	// allocation retries until the transaction drains.
	h := newHarness(t, config.HWcc, config.DirSparse, 1, 1, 3)
	h.send(wr(0, testLine))
	h.runAll()
	boxA := h.send(rd(1, testLine)) // recall in flight: entry pinned
	h.runAll()

	boxB := h.send(rd(2, testLine+1)) // different line, same (only) set
	h.runFor(200)                     // retry loop spins while the entry is pinned
	if boxB.done {
		t.Fatal("allocated into a pinned set")
	}
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyData, Mask: 0})
	h.runAll()
	if !boxA.done {
		t.Fatal("A stuck after recall reply")
	}
	// B's retry now evicts A's (unpinned) entry, probing its sharer.
	if len(h.probes) != 2 || h.probes[1].probe.Kind != msg.ProbeInv || h.probes[1].probe.Line != testLine {
		t.Fatalf("probes = %+v", h.probes)
	}
	h.probes[1].reply(msg.ProbeReply{Kind: msg.ReplyAck})
	h.runAll()
	if !boxB.done {
		t.Fatal("B stuck after victim recall")
	}
}

func TestHomeAtomicRecallsAndApplies(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	h.send(wr(0, testLine))
	h.runAll()

	box := h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 1, Line: testLine,
		Addr: testLine.Base(), Op: msg.AtomicAdd, Operand: 10,
	})
	h.runAll()
	if box.done {
		t.Fatal("atomic completed without recalling the owner")
	}
	var data [addr.WordsPerLine]uint32
	data[0] = 100
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyData, Mask: 1, Data: data})
	h.runAll()
	if !box.done || box.resp.Value != 100 {
		t.Fatalf("resp = %+v", box.resp)
	}
	if h.store.ReadWord(testLine.Base()) != 110 {
		t.Fatalf("memory = %d", h.store.ReadWord(testLine.Base()))
	}
	if h.dir().Lookup(testLine) != nil {
		t.Fatal("atomic left the line tracked")
	}
}

func TestHomeUncachedOps(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	a := testLine.Base() + 8
	box := h.send(msg.Req{Kind: msg.ReqUncStore, Cluster: 0, Line: testLine, Addr: a, Operand: 33})
	h.runAll()
	if !box.done {
		t.Fatal("uncached store not acked")
	}
	box = h.send(msg.Req{Kind: msg.ReqUncLoad, Cluster: 1, Line: testLine, Addr: a})
	h.runAll()
	if !box.done || box.resp.Value != 33 {
		t.Fatalf("uncached load = %+v", box.resp)
	}
}

func TestHomeSWFlushAckedAndMerged(t *testing.T) {
	h := newHarness(t, config.SWcc, config.DirNone, 0, 0, 2)
	var data [addr.WordsPerLine]uint32
	data[2] = 9
	box := h.send(msg.Req{Kind: msg.ReqSWFlush, Cluster: 0, Line: testLine, Mask: 4, Data: data})
	h.runAll()
	if !box.done {
		t.Fatal("flush not acked")
	}
	if h.store.ReadWord(testLine.Base()+8) != 9 {
		t.Fatal("flush not merged")
	}
}

func TestHomeSWccModeGrantsIncoherent(t *testing.T) {
	h := newHarness(t, config.SWcc, config.DirNone, 0, 0, 2)
	box := h.send(rd(0, testLine))
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantIncoherent {
		t.Fatalf("resp = %+v", box.resp)
	}
}

func TestHomeDir4BBroadcastRecall(t *testing.T) {
	clusters := 6
	h := newHarness(t, config.HWcc, config.DirLimited4B, 8, 0, clusters)
	for c := 0; c < clusters; c++ {
		h.send(rd(c, testLine))
	}
	h.runAll()
	e := h.dir().Lookup(testLine)
	if e == nil || !e.Broadcast {
		t.Fatalf("entry not overflowed: %+v", e)
	}
	// A write now probes every other cluster (broadcast).
	h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
		return &msg.ProbeReply{Kind: msg.ReplyAck}
	}
	box := h.send(wr(0, testLine))
	h.runAll()
	if !box.done {
		t.Fatal("broadcast write never completed")
	}
	if len(h.probes) != clusters-1 {
		t.Fatalf("probed %d clusters, want %d", len(h.probes), clusters-1)
	}
	if h.run.DirBroadcasts == 0 {
		t.Fatal("broadcast not counted")
	}
}

func TestHomeCohesionCoarseRegionIncoherent(t *testing.T) {
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	if err := h.home.coarse.Add(addr.Range{Base: addr.StackBase, Size: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	line := addr.LineOf(addr.StackBase)
	box := h.send(rd(0, line))
	h.runAll()
	if !box.done || box.resp.Grant != msg.GrantIncoherent {
		t.Fatalf("resp = %+v", box.resp)
	}
	if h.dir().Lookup(line) != nil {
		t.Fatal("coarse-region line tracked")
	}
}

func TestHomeCohesionFineTableDecidesDomain(t *testing.T) {
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	swLine := addr.LineOf(addr.CohHeapBase)
	h.home.fine.Set(swLine.Base())

	box := h.send(rd(0, swLine))
	h.runAll()
	if box.resp.Grant != msg.GrantIncoherent {
		t.Fatalf("SWcc-bit line granted %v", box.resp.Grant)
	}
	hwLine := swLine + 1
	box = h.send(rd(0, hwLine))
	h.runAll()
	if box.resp.Grant != msg.GrantShared {
		t.Fatalf("clear-bit line granted %v", box.resp.Grant)
	}
}

func TestHomeTableSnoopMultiBitSerialized(t *testing.T) {
	// One atomic flipping several table bits triggers one transition per
	// line, serialized, before the atomic is acknowledged.
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	base := addr.LineOf(addr.CohHeapBase)
	// Pick three lines that share a table word.
	wa := region.TblWordAddr(base.Base(), 1)
	var mask uint32
	lines := 0
	for i := addr.Line(0); i < 64 && lines < 3; i++ {
		l := base + i
		if region.TblWordAddr(l.Base(), 1) == wa {
			mask |= 1 << region.TblBitIndex(l.Base())
			lines++
		}
	}
	h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
		return &msg.ProbeReply{Kind: msg.ReplyNotPresent}
	}
	box := h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 0,
		Line: addr.LineOf(wa), Addr: wa,
		Op: msg.AtomicOr, Operand: mask,
	})
	h.runAll()
	if !box.done {
		t.Fatal("table atomic not acked")
	}
	if h.run.TransitionsToSW != 3 {
		t.Fatalf("TransitionsToSW = %d, want 3", h.run.TransitionsToSW)
	}
	// Clearing the bits transitions back; SW->HW broadcasts capture
	// probes to every cluster per line.
	h.probes = nil
	box = h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 0,
		Line: addr.LineOf(wa), Addr: wa,
		Op: msg.AtomicAnd, Operand: ^mask,
	})
	h.runAll()
	if !box.done || h.run.TransitionsToHW != 3 {
		t.Fatalf("toHW = %d (done=%v)", h.run.TransitionsToHW, box.done)
	}
	if len(h.probes) != 3*2 {
		t.Fatalf("capture probes = %d, want 6", len(h.probes))
	}
}

func TestHomeCaptureUpgradeOwnerEvictedBetweenPhases(t *testing.T) {
	// Case 4b where the would-be owner evicts between the capture reply
	// and the upgrade probe: the entry must be dropped, data preserved.
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	line := addr.LineOf(addr.CohHeapBase)
	h.home.fine.Set(line.Base())

	step := 0
	h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
		switch p.Kind {
		case msg.ProbeCapture:
			step++
			if cluster == 0 {
				return &msg.ProbeReply{Kind: msg.ReplyDirty, Mask: 1}
			}
			return &msg.ProbeReply{Kind: msg.ReplyNotPresent}
		case msg.ProbeUpgradeOwner:
			// Owner evicted; its eviction already merged (simulate it).
			var data [addr.WordsPerLine]uint32
			data[0] = 42
			h.sendNoReply(msg.Req{Kind: msg.ReqEvict, Cluster: 0, Line: line, Mask: 1, Data: data})
			return &msg.ProbeReply{Kind: msg.ReplyNotPresent}
		}
		return &msg.ProbeReply{Kind: msg.ReplyAck}
	}
	box := h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 1,
		Line: addr.LineOf(region.TblWordAddr(line.Base(), 1)),
		Addr: region.TblWordAddr(line.Base(), 1),
		Op:   msg.AtomicAnd, Operand: ^(uint32(1) << region.TblBitIndex(line.Base())),
	})
	h.runAll()
	if !box.done {
		t.Fatal("transition wedged on evicted owner")
	}
	if h.dir().Lookup(line) != nil {
		t.Fatal("stale entry for evicted owner")
	}
	if h.store.ReadWord(line.Base()) != 42 {
		t.Fatal("owner's data lost")
	}
}

func TestHomeInstrReqTrackedUnderHWcc(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	line := addr.LineOf(addr.CodeBase)
	box := h.send(msg.Req{Kind: msg.ReqInstr, Cluster: 0, Line: line})
	h.runAll()
	if box.resp.Grant != msg.GrantShared {
		t.Fatalf("instr grant = %v", box.resp.Grant)
	}
	if h.dir().Lookup(line) == nil {
		t.Fatal("code line untracked under pure HWcc")
	}
}

func TestHomePendingReflectsState(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 2)
	if h.home.Pending() {
		t.Fatal("fresh home pending")
	}
	h.send(wr(0, testLine))
	h.runAll()
	h.send(rd(1, testLine)) // recall outstanding
	h.runAll()
	if !h.home.Pending() {
		t.Fatal("recall not reflected in Pending")
	}
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyData, Mask: 0})
	h.runAll()
	if h.home.Pending() {
		t.Fatal("still pending after drain")
	}
}

// A software flush arriving for a line mid-capture merges immediately and
// must not wedge the transition.
func TestHomeFlushDuringCapture(t *testing.T) {
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	line := addr.LineOf(addr.CohHeapBase)
	h.home.fine.Set(line.Base())

	// Start the SW->HW transition; hold the capture replies.
	wa := region.TblWordAddr(line.Base(), 1)
	box := h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 1, Line: addr.LineOf(wa), Addr: wa,
		Op: msg.AtomicAnd, Operand: ^(uint32(1) << region.TblBitIndex(line.Base())),
	})
	h.runAll()
	if len(h.probes) != 2 {
		t.Fatalf("capture probes = %d", len(h.probes))
	}
	// A flush lands while the capture is outstanding.
	var data [addr.WordsPerLine]uint32
	data[2] = 77
	fbox := h.send(msg.Req{Kind: msg.ReqSWFlush, Cluster: 0, Line: line, Mask: 4, Data: data})
	h.runAll()
	if !fbox.done {
		t.Fatal("flush not acked during capture")
	}
	if h.store.ReadWord(line.Base()+8) != 77 {
		t.Fatal("flush not merged during capture")
	}
	// Finish the capture (both clusters report clean-or-absent).
	h.probes[0].reply(msg.ProbeReply{Kind: msg.ReplyNotPresent})
	h.probes[1].reply(msg.ProbeReply{Kind: msg.ReplyClean})
	h.runAll()
	if !box.done {
		t.Fatal("transition wedged")
	}
}

// UncStore to a table word triggers transitions just like an atomic.
func TestHomeUncStoreToTableSnooped(t *testing.T) {
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	line := addr.LineOf(addr.CohHeapBase)
	wa := region.TblWordAddr(line.Base(), 1)
	bit := uint32(1) << region.TblBitIndex(line.Base())
	box := h.send(msg.Req{Kind: msg.ReqUncStore, Cluster: 0, Line: addr.LineOf(wa), Addr: wa, Operand: bit})
	h.runAll()
	if !box.done {
		t.Fatal("store not acked")
	}
	if h.run.TransitionsToSW != 1 {
		t.Fatalf("toSW = %d, want 1", h.run.TransitionsToSW)
	}
	if !h.home.fine.IsSWcc(line.Base()) {
		t.Fatal("bit not set")
	}
}

// Writing a table word to the value it already holds is not a transition.
func TestHomeTableIdempotentWriteNoTransition(t *testing.T) {
	h := newHarness(t, config.Cohesion, config.DirInfinite, 0, 0, 2)
	line := addr.LineOf(addr.CohHeapBase)
	wa := region.TblWordAddr(line.Base(), 1)
	bit := uint32(1) << region.TblBitIndex(line.Base())
	h.home.fine.Set(line.Base())
	box := h.send(msg.Req{
		Kind: msg.ReqAtomic, Cluster: 0, Line: addr.LineOf(wa), Addr: wa,
		Op: msg.AtomicOr, Operand: bit, // already set
	})
	h.runAll()
	if !box.done {
		t.Fatal("atomic not acked")
	}
	if h.run.TransitionsToSW+h.run.TransitionsToHW != 0 {
		t.Fatal("idempotent table write caused a transition")
	}
}

// Only a fault plan duplicates or retransmits a granted request, so a bank
// without one neither keeps nor consults its serviced-ID sets; with one, a
// redelivered ID is dropped unanswered.
func TestHomeServicedSetsOnlyUnderFaults(t *testing.T) {
	for _, faults := range []bool{false, true} {
		h := newHarness(t, config.HWcc, config.DirSparse, 64, 4, 2)
		if faults {
			h.home.faults = fault.NewPlan(config.FaultPlan{Enabled: true}, h.run)
		}
		for i := 0; i < 8; i++ {
			req := rd(i%2, testLine+addr.Line(i))
			req.ID = uint64(i + 1)
			box := h.send(req)
			h.runAll()
			if !box.done || box.resp.Grant != msg.GrantShared {
				t.Fatalf("faults=%v: request %d: resp = %+v", faults, i, box.resp)
			}
		}
		dup := rd(0, testLine)
		dup.ID = 1
		box := h.send(dup)
		h.runAll()
		if !faults {
			if !box.done || h.run.DupsDropped != 0 {
				t.Fatal("a fault-free bank dropped a request as a duplicate")
			}
			if !reflect.DeepEqual(h.home.serviced, linetab.Set{}) || !reflect.DeepEqual(h.home.prevServiced, linetab.Set{}) {
				t.Fatal("a fault-free bank allocated its serviced-ID sets")
			}
			continue
		}
		if box.done || h.run.DupsDropped != 1 {
			t.Fatalf("redelivered ID: answered %v, %d dropped, want unanswered and 1", box.done, h.run.DupsDropped)
		}
		if n := h.home.serviced.Len(); n != 8 {
			t.Fatalf("serviced-ID set holds %d IDs, want 8", n)
		}
	}
}
