package cluster

import (
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/config"
	"cohesion/internal/event"
	"cohesion/internal/msg"
	"cohesion/internal/stats"
)

// fakeHome scripts the home side of the protocol: every outbound request
// is recorded, and a responder decides the reply (immediately, with a
// small delay, to model the network round trip).
type fakeHome struct {
	t       *testing.T
	q       *event.Queue
	reqs    []msg.Req
	respond func(req msg.Req) *msg.Resp // nil = no response (fire-and-forget)
}

func (f *fakeHome) send(req msg.Req, onResp func(msg.Resp)) {
	f.reqs = append(f.reqs, req)
	if f.respond == nil {
		if onResp != nil {
			f.t.Fatalf("no responder for %v", req.Kind)
		}
		return
	}
	resp := f.respond(req)
	if resp == nil {
		return
	}
	if onResp == nil {
		return
	}
	r := *resp
	f.q.After(5, func() { onResp(r) })
}

// grantAll responds to every request with the "obvious" grant: data for
// reads/writes, values for uncached ops.
func grantAll(store map[addr.Addr]uint32, grant func(msg.Req) msg.Grant) func(msg.Req) *msg.Resp {
	return func(req msg.Req) *msg.Resp {
		switch req.Kind {
		case msg.ReqRead, msg.ReqWrite, msg.ReqInstr:
			resp := msg.Resp{Grant: grant(req), HasData: true}
			for w := 0; w < addr.WordsPerLine; w++ {
				resp.Data[w] = store[req.Line.Base()+addr.Addr(4*w)]
			}
			return &resp
		case msg.ReqSWFlush:
			for w := 0; w < addr.WordsPerLine; w++ {
				if req.Mask&(1<<w) != 0 {
					store[req.Line.Base()+addr.Addr(4*w)] = req.Data[w]
				}
			}
			return &msg.Resp{Grant: msg.GrantNone}
		case msg.ReqEvict:
			for w := 0; w < addr.WordsPerLine; w++ {
				if req.Mask&(1<<w) != 0 {
					store[req.Line.Base()+addr.Addr(4*w)] = req.Data[w]
				}
			}
			return nil
		case msg.ReqReadRel:
			return nil
		case msg.ReqUncLoad:
			return &msg.Resp{Value: store[addr.WordAlign(req.Addr)]}
		case msg.ReqUncStore:
			store[addr.WordAlign(req.Addr)] = req.Operand
			return &msg.Resp{}
		case msg.ReqAtomic:
			old := store[addr.WordAlign(req.Addr)]
			store[addr.WordAlign(req.Addr)] = req.Op.Apply(old, req.Operand, req.Operand2)
			return &msg.Resp{Value: old}
		}
		return nil
	}
}

type fixture struct {
	t    *testing.T
	q    *event.Queue
	run  *stats.Run
	cl   *Cluster
	home *fakeHome
	mem  map[addr.Addr]uint32
	done int
}

func newFixture(t *testing.T, mode config.Mode) *fixture {
	t.Helper()
	cfg := config.Scaled(1).WithMode(mode)
	if mode != config.SWcc {
		cfg = cfg.WithDirectory(config.DirInfinite, 0, 0)
	}
	f := &fixture{t: t, q: &event.Queue{}, run: &stats.Run{}, mem: map[addr.Addr]uint32{}}
	f.home = &fakeHome{t: t, q: f.q}
	f.cl = New(0, cfg, f.q, f.run)
	f.cl.Wire(f.home.send, func() { f.done++ })
	return f
}

// exec runs a program on core 0 to completion.
func (f *fixture) exec(body func(c *Core)) {
	f.execOn(0, body)
	for f.q.Step() {
	}
	if f.done == 0 {
		f.t.Fatal("program did not finish")
	}
}

func (f *fixture) execOn(core int, body func(c *Core)) {
	f.cl.StartCore(core, func(c *Core) {
		c.SetCode(addr.CodeBase, 64) // one code line: a single ifetch miss
		body(c)
	})
}

func (f *fixture) kinds() []msg.ReqKind {
	out := make([]msg.ReqKind, len(f.home.reqs))
	for i, r := range f.home.reqs {
		out[i] = r.Kind
	}
	return out
}

func (f *fixture) countKind(k msg.ReqKind) int {
	n := 0
	for _, r := range f.home.reqs {
		if r.Kind == k {
			n++
		}
	}
	return n
}

const dataAddr = addr.Addr(addr.HeapBase)

func TestClusterLoadMissFillsAndCaches(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.mem[dataAddr] = 42
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	var v1, v2 uint32
	f.exec(func(c *Core) {
		v1 = c.Do(Op{Kind: OpLoad, Addr: dataAddr})
		v2 = c.Do(Op{Kind: OpLoad, Addr: dataAddr + 4})
	})
	if v1 != 42 || v2 != 0 {
		t.Fatalf("loads = %d, %d", v1, v2)
	}
	if f.countKind(msg.ReqRead) != 1 {
		t.Fatalf("read requests = %d, want 1 (second load hits)", f.countKind(msg.ReqRead))
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || e.State != cache.StateShared || e.Incoherent {
		t.Fatalf("L2 entry = %+v", e)
	}
}

func TestClusterStoreMissThenHit(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(req msg.Req) msg.Grant {
		if req.Kind == msg.ReqWrite {
			return msg.GrantModified
		}
		return msg.GrantShared
	})
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 7})
		c.Do(Op{Kind: OpStore, Addr: dataAddr + 4, Value: 8}) // hits in M
	})
	if f.countKind(msg.ReqWrite) != 1 {
		t.Fatalf("write requests = %d, want 1", f.countKind(msg.ReqWrite))
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || e.State != cache.StateModified || e.DirtyMask != 0b11 {
		t.Fatalf("entry = %+v", e)
	}
	if e.Data[0] != 7 || e.Data[1] != 8 {
		t.Fatal("store data wrong")
	}
}

func TestClusterUpgradeFromShared(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(req msg.Req) msg.Grant {
		if req.Kind == msg.ReqWrite {
			return msg.GrantModified
		}
		return msg.GrantShared
	})
	// Upgrade responses carry no data when the requester was a sharer.
	base := f.home.respond
	f.home.respond = func(req msg.Req) *msg.Resp {
		if req.Kind == msg.ReqWrite {
			return &msg.Resp{Grant: msg.GrantModified} // dataless upgrade
		}
		return base(req)
	}
	f.exec(func(c *Core) {
		_ = c.Do(Op{Kind: OpLoad, Addr: dataAddr}) // line S
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 9})
	})
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || e.State != cache.StateModified || e.Data[0] != 9 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestClusterSWccStoreMissIsSilent(t *testing.T) {
	f := newFixture(t, config.SWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 3})
	})
	if n := f.countKind(msg.ReqWrite); n != 0 {
		t.Fatalf("SWcc store sent %d write requests", n)
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || !e.Incoherent || e.ValidMask != 1 || e.DirtyMask != 1 {
		t.Fatalf("entry = %+v", e)
	}
}

// TestClusterResumesOncePerPark: every operation goes through the core's
// queue; the program is resumed at its start and once per park, and not
// again after it returns, even with operations still queued then.
func TestClusterResumesOncePerPark(t *testing.T) {
	f := newFixture(t, config.SWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	f.exec(func(c *Core) {
		c.DoAsync(Op{Kind: OpStore, Addr: dataAddr, Value: 1})
		c.Do(Op{Kind: OpStore, Addr: dataAddr + 4, Value: 2}) // parks
		c.DoAsync(Op{Kind: OpStore, Addr: dataAddr + 8, Value: 3})
	})
	if f.run.Resumes != 2 {
		t.Fatalf("program resumed %d times, want 2 (start, after the Do)", f.run.Resumes)
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || e.Data[0] != 1 || e.Data[1] != 2 || e.Data[2] != 3 {
		t.Fatalf("entry = %+v, want words 1, 2, 3 stored", e)
	}
}

func TestClusterPartialLineFetchMergePreservesDirty(t *testing.T) {
	f := newFixture(t, config.SWcc)
	f.mem[dataAddr] = 1000 // stale memory under the locally dirty word
	f.mem[dataAddr+8] = 30
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	var other, own uint32
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 5}) // partial allocate
		other = c.Do(Op{Kind: OpLoad, Addr: dataAddr + 8})
		own = c.Do(Op{Kind: OpLoad, Addr: dataAddr})
	})
	if other != 30 {
		t.Fatalf("fetched word = %d", other)
	}
	if own != 5 {
		t.Fatalf("locally dirty word = %d (stale memory leaked in)", own)
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e.ValidMask != cache.FullMask || e.DirtyMask != 1 {
		t.Fatalf("masks = %x/%x", e.ValidMask, e.DirtyMask)
	}
}

func TestClusterMissCoalescing(t *testing.T) {
	// Two cores missing on the same line produce one request.
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	got := make([]uint32, 2)
	f.mem[dataAddr] = 77
	f.execOn(0, func(c *Core) { got[0] = c.Do(Op{Kind: OpLoad, Addr: dataAddr}) })
	f.execOn(1, func(c *Core) { got[1] = c.Do(Op{Kind: OpLoad, Addr: dataAddr}) })
	for f.q.Step() {
	}
	if f.done != 2 {
		t.Fatal("programs did not finish")
	}
	if got[0] != 77 || got[1] != 77 {
		t.Fatalf("loads = %v", got)
	}
	if n := f.countKind(msg.ReqRead); n != 1 {
		t.Fatalf("read requests = %d, want 1 (coalesced)", n)
	}
}

func TestClusterFlushSemantics(t *testing.T) {
	f := newFixture(t, config.SWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpFlush, Addr: dataAddr}) // absent: wasted
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 11})
		c.Do(Op{Kind: OpFlush, Addr: dataAddr}) // dirty: writes back
		c.Do(Op{Kind: OpFlush, Addr: dataAddr}) // clean now: no message
	})
	if f.run.WBIssued != 3 || f.run.WBUseful != 2 {
		t.Fatalf("wb issued/useful = %d/%d, want 3/2", f.run.WBIssued, f.run.WBUseful)
	}
	if n := f.countKind(msg.ReqSWFlush); n != 1 {
		t.Fatalf("flush messages = %d, want 1", n)
	}
	if f.mem[dataAddr] != 11 {
		t.Fatal("flush data lost")
	}
	e := f.cl.L2().Peek(addr.LineOf(dataAddr))
	if e == nil || e.DirtyMask != 0 {
		t.Fatal("flush must leave the line resident and clean")
	}
}

func TestClusterInvSemantics(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(req msg.Req) msg.Grant {
		if req.Kind == msg.ReqWrite {
			return msg.GrantModified
		}
		return msg.GrantShared
	})
	other := dataAddr + 0x4000
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpInv, Addr: dataAddr}) // absent: wasted
		_ = c.Do(Op{Kind: OpLoad, Addr: dataAddr})
		c.Do(Op{Kind: OpInv, Addr: dataAddr}) // clean coherent: read release
		c.Do(Op{Kind: OpStore, Addr: other, Value: 5})
		c.Do(Op{Kind: OpInv, Addr: other}) // dirty coherent: eviction message
	})
	if f.run.InvIssued != 3 || f.run.InvUseful != 2 {
		t.Fatalf("inv issued/useful = %d/%d", f.run.InvIssued, f.run.InvUseful)
	}
	if f.countKind(msg.ReqReadRel) != 1 || f.countKind(msg.ReqEvict) != 1 {
		t.Fatalf("messages = %v", f.kinds())
	}
	if f.cl.L2().Peek(addr.LineOf(dataAddr)) != nil || f.cl.L2().Peek(addr.LineOf(other)) != nil {
		t.Fatal("invalidated lines still present")
	}
	if f.mem[other] != 5 {
		t.Fatal("dirty data from coherent inv lost")
	}
}

func TestClusterSWccInvDropsDirtySilently(t *testing.T) {
	// INV on an incoherent dirty line discards the data with no message —
	// the documented (sharp-edged) SWcc semantics.
	f := newFixture(t, config.SWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 9})
		c.Do(Op{Kind: OpInv, Addr: dataAddr})
	})
	if f.countKind(msg.ReqEvict)+f.countKind(msg.ReqSWFlush) != 0 {
		t.Fatalf("messages = %v, want none", f.kinds())
	}
	if _, ok := f.mem[dataAddr]; ok {
		t.Fatal("dropped data reached memory")
	}
}

func TestClusterEvictionMessages(t *testing.T) {
	// Overfill one L2 set; victims must emit the right messages.
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(req msg.Req) msg.Grant {
		if req.Kind == msg.ReqWrite {
			return msg.GrantModified
		}
		return msg.GrantShared
	})
	setStride := addr.Addr(64 << 10 / 16) // lines mapping to the same set
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 1}) // will become the victim
		for i := 1; i <= 16; i++ {
			_ = c.Do(Op{Kind: OpLoad, Addr: dataAddr + addr.Addr(i)*setStride})
		}
	})
	if f.countKind(msg.ReqEvict) == 0 {
		t.Fatalf("no dirty eviction: %v", f.kinds())
	}
	if f.mem[dataAddr] != 1 {
		t.Fatal("evicted dirty data lost")
	}
}

func TestClusterReadReleaseToggle(t *testing.T) {
	run := func(releases bool) int {
		f := newFixture(t, config.HWcc)
		f.cl.cfg.ReadReleases = releases
		f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
		setStride := addr.Addr(64 << 10 / 16)
		f.exec(func(c *Core) {
			for i := 0; i <= 16; i++ { // one more than the ways
				_ = c.Do(Op{Kind: OpLoad, Addr: dataAddr + addr.Addr(i)*setStride})
			}
		})
		return f.countKind(msg.ReqReadRel)
	}
	if run(true) == 0 {
		t.Fatal("no read releases with the protocol enabled")
	}
	if run(false) != 0 {
		t.Fatal("read releases sent despite ablation")
	}
}

func TestClusterProbeMatrix(t *testing.T) {
	f := newFixture(t, config.Cohesion)
	f.home.respond = grantAll(f.mem, func(req msg.Req) msg.Grant {
		if req.Kind == msg.ReqWrite {
			return msg.GrantModified
		}
		return msg.GrantShared
	})
	probe := func(k msg.ProbeKind, line addr.Line) msg.ProbeReply {
		var out msg.ProbeReply
		f.cl.HandleProbe(msg.Probe{Kind: k, Line: line}, func(r msg.ProbeReply) { out = r })
		return out
	}

	absent := addr.LineOf(dataAddr + 0x10000)
	if r := probe(msg.ProbeInv, absent); r.Kind != msg.ReplyAck {
		t.Fatalf("inv absent = %v", r.Kind)
	}
	if r := probe(msg.ProbeWB, absent); r.Kind != msg.ReplyAck {
		t.Fatalf("wb absent = %v", r.Kind)
	}
	if r := probe(msg.ProbeCapture, absent); r.Kind != msg.ReplyNotPresent {
		t.Fatalf("capture absent = %v", r.Kind)
	}
	if r := probe(msg.ProbeUpgradeOwner, absent); r.Kind != msg.ReplyNotPresent {
		t.Fatalf("upgrade absent = %v", r.Kind)
	}

	// Install a dirty coherent line, then probe it.
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 5})
	})
	line := addr.LineOf(dataAddr)
	r := probe(msg.ProbeWB, line)
	if r.Kind != msg.ReplyData || r.Mask != 1 || r.Data[0] != 5 {
		t.Fatalf("wb dirty = %+v", r)
	}
	if f.cl.L2().Peek(line) != nil {
		t.Fatal("ProbeWB left the line resident")
	}

	// A clean incoherent line: capture turns it into a hardware sharer.
	swAddr := dataAddr + 0x8000
	base := f.home.respond
	f.home.respond = func(req msg.Req) *msg.Resp {
		if req.Line == addr.LineOf(swAddr) {
			resp := base(req)
			resp.Grant = msg.GrantIncoherent
			return resp
		}
		return base(req)
	}
	f.done = 0
	f.execOn(1, func(c *Core) { _ = c.Do(Op{Kind: OpLoad, Addr: swAddr}) })
	for f.q.Step() {
	}
	r = probe(msg.ProbeCapture, addr.LineOf(swAddr))
	if r.Kind != msg.ReplyClean {
		t.Fatalf("capture clean = %v", r.Kind)
	}
	e := f.cl.L2().Peek(addr.LineOf(swAddr))
	if e == nil || e.Incoherent || e.State != cache.StateShared {
		t.Fatalf("captured line = %+v", e)
	}

	// A dirty incoherent line: capture reports dirty and keeps the line;
	// upgrade-owner then makes it Modified in place.
	swAddr2 := dataAddr + 0xC000
	f.done = 0
	f.execOn(2, func(c *Core) { c.Do(Op{Kind: OpStore, Addr: swAddr2, Value: 8}) })
	for f.q.Step() {
	}
	// Force the line incoherent-dirty (the fake home granted M; rewrite).
	e2 := f.cl.L2().Peek(addr.LineOf(swAddr2))
	e2.Incoherent = true
	e2.State = cache.StateInvalid
	r = probe(msg.ProbeCapture, addr.LineOf(swAddr2))
	if r.Kind != msg.ReplyDirty || r.Mask != 1 {
		t.Fatalf("capture dirty = %+v", r)
	}
	if f.cl.L2().Peek(addr.LineOf(swAddr2)) == nil {
		t.Fatal("capture evicted the dirty line")
	}
	r = probe(msg.ProbeUpgradeOwner, addr.LineOf(swAddr2))
	if r.Kind != msg.ReplyAck {
		t.Fatalf("upgrade = %v", r.Kind)
	}
	e2 = f.cl.L2().Peek(addr.LineOf(swAddr2))
	if e2.Incoherent || e2.State != cache.StateModified || e2.DirtyMask != 1 {
		t.Fatalf("upgraded line = %+v", e2)
	}
}

func TestClusterIFetchSharedCodeLine(t *testing.T) {
	// Two cores share the L2's code line: one instruction request total.
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	f.execOn(0, func(c *Core) { c.Do(Op{Kind: OpWork, Cycles: 1}) })
	f.execOn(1, func(c *Core) { c.Do(Op{Kind: OpWork, Cycles: 1}) })
	for f.q.Step() {
	}
	if n := f.countKind(msg.ReqInstr); n != 1 {
		t.Fatalf("instruction requests = %d, want 1", n)
	}
}

func TestClusterLargeCodeFootprintMisses(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	f.cl.StartCore(0, func(c *Core) {
		c.SetCode(addr.CodeBase, 4<<10) // 4 KB footprint > 2 KB L1I
		for i := 0; i < 3000; i++ {
			c.Do(Op{Kind: OpWork, Cycles: 1})
		}
	})
	for f.q.Step() {
	}
	if n := f.countKind(msg.ReqInstr); n < 100 {
		t.Fatalf("instruction requests = %d, want many (footprint exceeds L1I)", n)
	}
}

func TestClusterUncachedOps(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	var old, v uint32
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpUncStore, Addr: dataAddr, Value: 40})
		old = c.Do(Op{Kind: OpAtomic, Addr: dataAddr, AOp: msg.AtomicAdd, Value: 2})
		v = c.Do(Op{Kind: OpUncLoad, Addr: dataAddr})
	})
	if old != 40 || v != 42 {
		t.Fatalf("old=%d v=%d", old, v)
	}
	// None of these touched the L2.
	if f.cl.L2().Peek(addr.LineOf(dataAddr)) != nil {
		t.Fatal("uncached op allocated a cache line")
	}
}

func TestClusterDrainDirty(t *testing.T) {
	f := newFixture(t, config.SWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantIncoherent })
	f.exec(func(c *Core) {
		c.Do(Op{Kind: OpStore, Addr: dataAddr, Value: 1})
		c.Do(Op{Kind: OpStore, Addr: dataAddr + 0x1000, Value: 2})
	})
	seen := map[addr.Line]uint8{}
	f.cl.DrainDirty(func(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
		seen[line] = mask
	})
	if len(seen) != 2 {
		t.Fatalf("drained %d lines, want 2", len(seen))
	}
}

func TestClusterStartCoreTwicePanics(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	f.exec(func(c *Core) {})
	defer func() {
		if recover() == nil {
			t.Fatal("double StartCore accepted")
		}
	}()
	f.cl.StartCore(0, func(c *Core) {})
}

func TestClusterMSHRLimitStallsNotDeadlocks(t *testing.T) {
	// With a single MSHR, concurrent misses from different cores stall and
	// retry; every load must still complete with the right value.
	f := newFixture(t, config.HWcc)
	f.cl.cfg.L2MSHRs = 1
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	for w := 0; w < 4; w++ {
		f.mem[dataAddr+addr.Addr(0x1000*w)] = uint32(100 + w)
	}
	got := make([]uint32, 4)
	for c := 0; c < 4; c++ {
		c := c
		f.execOn(c, func(core *Core) {
			got[c] = core.Do(Op{Kind: OpLoad, Addr: dataAddr + addr.Addr(0x1000*c)})
		})
	}
	for f.q.Step() {
	}
	if f.done != 4 {
		t.Fatalf("only %d cores finished", f.done)
	}
	for c := 0; c < 4; c++ {
		if got[c] != uint32(100+c) {
			t.Fatalf("core %d loaded %d", c, got[c])
		}
	}
}

// TestClusterIdleCoresHoldNothing: a core that never starts holds no L1
// arrays, continuation funcs or op queue, and an L2 eviction still drops
// the line from the L1I and L1D of every started core.
func TestClusterIdleCoresHoldNothing(t *testing.T) {
	f := newFixture(t, config.HWcc)
	f.home.respond = grantAll(f.mem, func(msg.Req) msg.Grant { return msg.GrantShared })
	codeLine, dataLine := addr.LineOf(addr.CodeBase), addr.LineOf(dataAddr)
	started := []int{0, 2}
	for _, i := range started {
		f.execOn(i, func(c *Core) { c.Do(Op{Kind: OpLoad, Addr: dataAddr}) })
	}
	for f.q.Step() {
	}
	for _, i := range started {
		if c := f.cl.Cores[i]; c.l1i.Peek(codeLine) == nil || c.l1d.Peek(dataLine) == nil {
			t.Fatalf("core %d's L1s do not hold the code and data lines", i)
		}
	}
	// A third core, fetching from another code line, loads 16 lines into
	// each of the two lines' L2 sets and evicts both.
	setStride := addr.Addr(64 << 10 / 16)
	f.cl.StartCore(4, func(c *Core) {
		c.SetCode(addr.CodeBase+2*addr.LineBytes, 64)
		for i := addr.Addr(1); i <= 16; i++ {
			c.Do(Op{Kind: OpLoad, Addr: addr.CodeBase + i*setStride})
			c.Do(Op{Kind: OpLoad, Addr: dataAddr + i*setStride})
		}
	})
	for f.q.Step() {
	}
	if f.done != 3 {
		t.Fatalf("%d of 3 programs finished", f.done)
	}
	if f.cl.L2().Peek(codeLine) != nil || f.cl.L2().Peek(dataLine) != nil {
		t.Fatal("the code and data lines survived in the L2")
	}
	for _, i := range started {
		if c := f.cl.Cores[i]; c.l1i.Peek(codeLine) != nil || c.l1d.Peek(dataLine) != nil {
			t.Errorf("core %d's L1s still hold a line the L2 evicted", i)
		}
	}
	for _, c := range f.cl.Cores {
		if c.next != nil {
			continue
		}
		if c.l1i != nil || c.l1d != nil || c.fetchFn != nil || c.opq != nil {
			t.Errorf("core %d never started but holds L1s, continuations or an op queue", c.ID)
		}
	}
}
