package machine

import (
	"errors"
	"strings"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/msg"
	"cohesion/internal/region"
	"cohesion/internal/trace"
)

// --- tiny op helpers for hand-written test programs ---

func ld(c *cluster.Core, a addr.Addr) uint32 {
	return c.Do(cluster.Op{Kind: cluster.OpLoad, Addr: a})
}
func st(c *cluster.Core, a addr.Addr, v uint32) {
	c.Do(cluster.Op{Kind: cluster.OpStore, Addr: a, Value: v})
}
func flush(c *cluster.Core, a addr.Addr) {
	c.Do(cluster.Op{Kind: cluster.OpFlush, Addr: a})
}
func inv(c *cluster.Core, a addr.Addr) {
	c.Do(cluster.Op{Kind: cluster.OpInv, Addr: a})
}
func atomic(c *cluster.Core, a addr.Addr, op msg.AtomicOp, v uint32) uint32 {
	return c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: a, AOp: op, Value: v})
}
func uncLoad(c *cluster.Core, a addr.Addr) uint32 {
	return c.Do(cluster.Op{Kind: cluster.OpUncLoad, Addr: a})
}
func uncStore(c *cluster.Core, a addr.Addr, v uint32) {
	c.Do(cluster.Op{Kind: cluster.OpUncStore, Addr: a, Value: v})
}
func spinUntil(c *cluster.Core, a addr.Addr, want uint32) {
	for uncLoad(c, a) != want {
		c.Do(cluster.Op{Kind: cluster.OpWork, Cycles: 20})
	}
}

const syncWord = addr.GlobalBase + 0x100 // uncached sync flag used by tests

func newMachine(t *testing.T, cfg config.Machine) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func simulate(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.Simulate(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

func program(m *Machine, coreID int, body func(c *cluster.Core)) {
	m.StartProgram(coreID, func(c *cluster.Core) {
		c.SetCode(addr.CodeBase, 256)
		body(c)
	})
}

func hwccCfg(clusters int) config.Machine {
	return config.Scaled(clusters).WithMode(config.HWcc).WithDirectory(config.DirInfinite, 0, 0)
}

// --- basic single-core behaviour ---

func TestHWccStoreLoadSameCore(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	a := addr.Addr(addr.HeapBase)
	var got uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 42)
		st(c, a+4, 7)
		got = ld(c, a)
	})
	simulate(t, m)
	if got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	m.DrainToMemory()
	if m.Store.ReadWord(a) != 42 || m.Store.ReadWord(a+4) != 7 {
		t.Fatal("drained values wrong")
	}
}

func TestHWccProducerConsumerAcrossClusters(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	a := addr.Addr(addr.HeapBase)
	var got uint32
	program(m, 0, func(c *cluster.Core) { // cluster 0
		st(c, a, 1234)
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) { // cluster 1
		spinUntil(c, syncWord, 1)
		got = ld(c, a) // must recall the dirty line from cluster 0
	})
	simulate(t, m)
	if got != 1234 {
		t.Fatalf("consumer read %d, want 1234", got)
	}
}

func TestHWccWriteInvalidatesSharers(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	a := addr.Addr(addr.HeapBase)
	m.Store.WriteWord(a, 5)
	var got0, got1 uint32
	program(m, 0, func(c *cluster.Core) {
		got0 = ld(c, a) // both become sharers
		uncStore(c, syncWord, 1)
		spinUntil(c, syncWord, 2)
		st(c, a, 99) // invalidates cluster 1
		uncStore(c, syncWord, 3)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		_ = ld(c, a)
		uncStore(c, syncWord, 2)
		spinUntil(c, syncWord, 3)
		got1 = ld(c, a) // must see the new value via the directory
	})
	simulate(t, m)
	if got0 != 5 || got1 != 99 {
		t.Fatalf("got0=%d got1=%d, want 5, 99", got0, got1)
	}
}

// --- SWcc behaviour ---

func swccCfg(clusters int) config.Machine {
	return config.Scaled(clusters).WithMode(config.SWcc)
}

func TestSWccWriteAllocateNoMessages(t *testing.T) {
	m := newMachine(t, swccCfg(1))
	a := addr.Addr(addr.HeapBase)
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 10) // write-allocate: no message at all
		if v := ld(c, a); v != 10 {
			t.Errorf("local readback = %d", v)
		}
	})
	simulate(t, m)
	if n := m.Run.Messages[msg.WriteReq]; n != 0 {
		t.Fatalf("SWcc store sent %d write requests, want 0", n)
	}
}

func TestSWccFlushInvPropagates(t *testing.T) {
	m := newMachine(t, swccCfg(2))
	a := addr.Addr(addr.HeapBase)
	m.Store.WriteWord(a, 1) // initial value
	var got, stale uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 77)
		flush(c, a) // push to L3
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		stale = ld(c, a) // may cache the old value
		spinUntil(c, syncWord, 1)
		inv(c, a)      // drop the stale copy
		got = ld(c, a) // refetch from L3
	})
	simulate(t, m)
	if got != 77 {
		t.Fatalf("after flush+inv read %d, want 77 (stale first read %d)", got, stale)
	}
	if m.Run.Messages[msg.SWFlush] == 0 {
		t.Fatal("no software flush message counted")
	}
}

func TestSWccPartialLineMerge(t *testing.T) {
	// Two cores in different clusters write disjoint words of one line,
	// flush, and the L3 merge keeps both (the paper's per-word dirty bits).
	m := newMachine(t, swccCfg(2))
	base := addr.Addr(addr.HeapBase)
	program(m, 0, func(c *cluster.Core) {
		st(c, base, 11)
		flush(c, base)
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		st(c, base+4, 22)
		flush(c, base+4)
		spinUntil(c, syncWord, 1)
	})
	simulate(t, m)
	if m.Store.ReadWord(base) != 11 || m.Store.ReadWord(base+4) != 22 {
		t.Fatalf("merge lost a word: %d %d", m.Store.ReadWord(base), m.Store.ReadWord(base+4))
	}
}

func TestSWccPartialLineLoadFetchesRest(t *testing.T) {
	m := newMachine(t, swccCfg(1))
	base := addr.Addr(addr.HeapBase)
	m.Store.WriteWord(base+8, 333) // word 2 pre-set in memory
	var got, own uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, base, 1)      // partial write-allocate (word 0)
		got = ld(c, base+8) // word 2 invalid locally: fetch-merge
		own = ld(c, base)   // locally dirty word must survive the merge
	})
	simulate(t, m)
	if got != 333 || own != 1 {
		t.Fatalf("got=%d own=%d, want 333, 1", got, own)
	}
}

// --- atomics ---

func TestAtomicsSerializeAcrossClusters(t *testing.T) {
	m := newMachine(t, hwccCfg(4))
	ctr := addr.Addr(addr.GlobalBase + 0x200)
	perCore := 50
	for i := 0; i < 4; i++ {
		program(m, i*8, func(c *cluster.Core) {
			for k := 0; k < perCore; k++ {
				atomic(c, ctr, msg.AtomicAdd, 1)
			}
		})
	}
	simulate(t, m)
	if got := m.Store.ReadWord(ctr); got != uint32(4*perCore) {
		t.Fatalf("counter = %d, want %d", got, 4*perCore)
	}
}

func TestAtomicRecallsCachedLine(t *testing.T) {
	// An atomic to a word cached Modified in another cluster must observe
	// the cached (newest) value.
	m := newMachine(t, hwccCfg(2))
	a := addr.Addr(addr.HeapBase)
	var old uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 500) // cached dirty in cluster 0
		uncStore(c, syncWord, 1)
		spinUntil(c, syncWord, 2)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		old = atomic(c, a, msg.AtomicAdd, 1) // must recall 500 first
		uncStore(c, syncWord, 2)
	})
	simulate(t, m)
	if old != 500 {
		t.Fatalf("atomic observed %d, want 500", old)
	}
	if m.Store.ReadWord(a) != 501 {
		t.Fatalf("final value %d, want 501", m.Store.ReadWord(a))
	}
}

// --- Cohesion transitions ---

func cohesionCfg(clusters int) config.Machine {
	return config.Scaled(clusters).WithMode(config.Cohesion).WithDirectory(config.DirInfinite, 0, 0)
}

// transition toggles the fine-grain table bit for line a (set = SWcc).
func transition(c *cluster.Core, a addr.Addr, banks int, toSW bool) {
	wa := region.TblWordAddr(a, banks)
	bit := uint32(1) << region.TblBitIndex(a)
	if toSW {
		c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: wa, AOp: msg.AtomicOr, Value: bit})
	} else {
		c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: wa, AOp: msg.AtomicAnd, Value: ^bit})
	}
}

func TestCohesionDefaultIsHWcc(t *testing.T) {
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.HeapBase) // coherent heap: bits clear
	var got uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 9)
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		got = ld(c, a)
	})
	simulate(t, m)
	if got != 9 {
		t.Fatalf("HWcc-domain read %d, want 9", got)
	}
	if m.DirectoryEntries() == 0 {
		t.Fatal("no directory entries for HWcc-domain data")
	}
}

func TestCohesionSWccDomainLinesNotTracked(t *testing.T) {
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.CohHeapBase)
	m.PresetSWcc(addr.Range{Base: a, Size: 64})
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 3)
		flush(c, a)
	})
	simulate(t, m)
	// The SWcc-domain line must have no directory entry (sync word and
	// instruction lines may, under the infinite directory).
	bank := region.HomeBankOfLine(addr.LineOf(a), m.Cfg.L3Banks)
	if m.Homes[bank].Directory().Lookup(addr.LineOf(a)) != nil {
		t.Fatal("SWcc-domain line acquired a directory entry")
	}
	if m.Store.ReadWord(a) != 3 {
		t.Fatal("flush did not reach memory")
	}
}

func TestCohesionSWtoHWCapturesDirtyData(t *testing.T) {
	// Figure 7b Case 4b: one dirty writer; the transition upgrades it to
	// owner with no writeback, and a later reader pulls the data via HWcc.
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.CohHeapBase)
	m.PresetSWcc(addr.Range{Base: a, Size: 32})
	banks := m.Cfg.L3Banks
	var got uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 321)                  // dirty, incoherent, unflushed
		transition(c, a, banks, false) // SW -> HW: capture
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		got = ld(c, a) // HWcc pull of the captured line
	})
	simulate(t, m)
	if got != 321 {
		t.Fatalf("captured read %d, want 321", got)
	}
	if m.Run.TransitionsToHW != 1 {
		t.Fatalf("TransitionsToHW = %d, want 1", m.Run.TransitionsToHW)
	}
}

func TestCohesionHWtoSWWritesBackModified(t *testing.T) {
	// Figure 7a Case 3a: HW->SW transition of a line dirty in an L2 forces
	// a writeback; afterwards software reads it incoherently from the L3.
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.CohHeapBase + 0x1000) // starts HWcc (bit clear)
	banks := m.Cfg.L3Banks
	var got uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 654)                 // Modified in cluster 0 under HWcc
		transition(c, a, banks, true) // HW -> SW: writeback + invalidate
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		got = ld(c, a) // incoherent fetch must see 654
	})
	simulate(t, m)
	if got != 654 {
		t.Fatalf("post-transition read %d, want 654", got)
	}
	if m.Run.TransitionsToSW != 1 {
		t.Fatalf("TransitionsToSW = %d, want 1", m.Run.TransitionsToSW)
	}
	bank := region.HomeBankOfLine(addr.LineOf(a), banks)
	if m.Homes[bank].Directory().Lookup(addr.LineOf(a)) != nil {
		t.Fatal("directory entry survived HW->SW transition")
	}
}

func TestCohesionSWtoHWMergesDisjointWriters(t *testing.T) {
	// Figure 7b Case 3b: two clusters dirty disjoint words; the capture
	// writes both back and the L3 merge keeps both.
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.CohHeapBase)
	m.PresetSWcc(addr.Range{Base: a, Size: 32})
	banks := m.Cfg.L3Banks
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 71)
		uncStore(c, syncWord, 1)
		spinUntil(c, syncWord, 2)
		transition(c, a, banks, false)
		uncStore(c, syncWord, 3)
	})
	program(m, 8, func(c *cluster.Core) {
		st(c, a+4, 72)
		spinUntil(c, syncWord, 1)
		uncStore(c, syncWord, 2)
		spinUntil(c, syncWord, 3)
	})
	simulate(t, m)
	if m.Store.ReadWord(a) != 71 || m.Store.ReadWord(a+4) != 72 {
		t.Fatalf("merge lost a word: %d %d", m.Store.ReadWord(a), m.Store.ReadWord(a+4))
	}
	if m.Run.OverlapRaces != 0 {
		t.Fatalf("disjoint writers flagged as overlap race")
	}
}

func TestCohesionOverlapRaceDetected(t *testing.T) {
	// Figure 7b Case 5b: the same word dirty in two clusters is a software
	// race; the capture must flag it (and still converge).
	m := newMachine(t, cohesionCfg(2))
	a := addr.Addr(addr.CohHeapBase)
	m.PresetSWcc(addr.Range{Base: a, Size: 32})
	banks := m.Cfg.L3Banks
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 1)
		uncStore(c, syncWord, 1)
		spinUntil(c, syncWord, 2)
		transition(c, a, banks, false)
	})
	program(m, 8, func(c *cluster.Core) {
		st(c, a, 2)
		spinUntil(c, syncWord, 1)
		uncStore(c, syncWord, 2)
	})
	simulate(t, m)
	if m.Run.OverlapRaces != 1 {
		t.Fatalf("OverlapRaces = %d, want 1", m.Run.OverlapRaces)
	}
	if v := m.Store.ReadWord(a); v != 1 && v != 2 {
		t.Fatalf("raced word = %d, want 1 or 2", v)
	}
}

func TestCohesionCoarseRegionsBypassDirectory(t *testing.T) {
	m := newMachine(t, cohesionCfg(1))
	stackAddr := addr.Addr(addr.StackBase)
	if err := m.AddCoarseRegion(addr.Range{Base: addr.StackBase, Size: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	program(m, 0, func(c *cluster.Core) {
		st(c, stackAddr, 5)
		if v := ld(c, stackAddr); v != 5 {
			t.Errorf("stack readback = %d", v)
		}
	})
	simulate(t, m)
	bank := region.HomeBankOfLine(addr.LineOf(stackAddr), m.Cfg.L3Banks)
	if m.Homes[bank].Directory().Lookup(addr.LineOf(stackAddr)) != nil {
		t.Fatal("coarse-region line acquired a directory entry")
	}
}

// --- directory pressure ---

func TestSparseDirectoryEvictionsInvalidate(t *testing.T) {
	// A tiny directory forces evictions; reads must still always see the
	// latest values and invariants must hold.
	cfg := config.Scaled(2).WithMode(config.HWcc).WithDirectory(config.DirSparse, 16, 0)
	m := newMachine(t, cfg)
	base := addr.Addr(addr.HeapBase)
	n := 64 // lines touched: far more than 16 entries/bank
	var bad int
	program(m, 0, func(c *cluster.Core) {
		for i := 0; i < n; i++ {
			st(c, base+addr.Addr(i*32), uint32(i+1))
		}
		for i := 0; i < n; i++ {
			if ld(c, base+addr.Addr(i*32)) != uint32(i+1) {
				bad++
			}
		}
	})
	simulate(t, m)
	if bad != 0 {
		t.Fatalf("%d reads returned wrong values under directory pressure", bad)
	}
	if m.Run.DirEvictions == 0 {
		t.Fatal("expected directory evictions with a 16-entry directory")
	}
}

func TestDir4BBroadcastOnOverflow(t *testing.T) {
	cfg := config.Scaled(8).WithMode(config.HWcc).WithDirectory(config.DirLimited4B, 1024, 0)
	m := newMachine(t, cfg)
	a := addr.Addr(addr.HeapBase)
	m.Store.WriteWord(a, 7)
	readers := 6 // > 4 pointers
	var got uint32
	for i := 0; i < readers; i++ {
		i := i
		program(m, i*8, func(c *cluster.Core) {
			_ = ld(c, a)
			atomic(c, syncWord, msg.AtomicAdd, 1)
			if i == 0 {
				spinUntil(c, syncWord, uint32(readers))
				st(c, a, 100) // must broadcast invalidations
				uncStore(c, syncWord+4, 1)
			} else {
				spinUntil(c, syncWord+4, 1)
				if v := ld(c, a); i == 1 {
					got = v
				}
			}
		})
	}
	simulate(t, m)
	if m.Run.DirBroadcasts == 0 {
		t.Fatal("no broadcast recorded for overflowed Dir4B entry")
	}
	if got != 100 {
		t.Fatalf("reader saw %d after broadcast invalidate, want 100", got)
	}
}

// --- read releases & message accounting ---

func TestReadReleaseFreesDirectoryEntry(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	// Touch enough distinct lines to overflow one L2 set (16 ways) so a
	// clean line is evicted and released.
	base := addr.Addr(addr.HeapBase)
	setStride := addr.Addr(m.Cfg.L2Size / m.Cfg.L2Assoc) // same-set stride
	program(m, 0, func(c *cluster.Core) {
		for i := 0; i < 20; i++ {
			_ = ld(c, base+addr.Addr(i)*setStride)
		}
	})
	simulate(t, m)
	if m.Run.Messages[msg.ReadRel] == 0 {
		t.Fatal("no read releases sent")
	}
	// The released lines' entries must be gone (entries only for the ~16
	// still-resident lines plus code/sync lines).
	if got := m.DirectoryEntries(); got > 20 {
		t.Fatalf("directory holds %d entries, release did not deallocate", got)
	}
}

func TestAblationNoReadReleases(t *testing.T) {
	cfg := hwccCfg(1)
	cfg.ReadReleases = false
	m := newMachine(t, cfg)
	base := addr.Addr(addr.HeapBase)
	setStride := addr.Addr(m.Cfg.L2Size / m.Cfg.L2Assoc)
	var bad int
	program(m, 0, func(c *cluster.Core) {
		for i := 0; i < 40; i++ {
			if ld(c, base+addr.Addr(i)*setStride) != 0 {
				bad++
			}
		}
	})
	if err := m.Simulate(50_000_000); err != nil {
		t.Fatal(err)
	}
	// Invariants other than directory<->L2 agreement for stale sharers
	// cannot be checked here: stale entries are the point of the ablation.
	if bad != 0 {
		t.Fatalf("%d wrong reads", bad)
	}
	if m.Run.Messages[msg.ReadRel] != 0 {
		t.Fatal("read releases sent despite ablation")
	}
}

func TestSWccFewerMessagesThanHWccOnPrivateWrites(t *testing.T) {
	// The core of Figure 2: on private write-dominated work SWcc sends far
	// fewer messages than HWcc.
	workload := func(c *cluster.Core) {
		base := addr.Addr(addr.HeapBase)
		for i := 0; i < 400; i++ {
			st(c, base+addr.Addr(i*4), uint32(i))
		}
	}
	mSW := newMachine(t, swccCfg(1))
	program(mSW, 0, workload)
	simulate(t, mSW)

	mHW := newMachine(t, hwccCfg(1))
	program(mHW, 0, workload)
	simulate(t, mHW)

	sw, hw := mSW.Run.TotalMessages(), mHW.Run.TotalMessages()
	if hw <= sw {
		t.Fatalf("HWcc messages (%d) not above SWcc (%d)", hw, sw)
	}
}

func TestDeterministicRuns(t *testing.T) {
	build := func() *Machine {
		m := newMachine(t, hwccCfg(2))
		for i := 0; i < 2; i++ {
			i := i
			program(m, i*8, func(c *cluster.Core) {
				base := addr.Addr(addr.HeapBase)
				for k := 0; k < 100; k++ {
					st(c, base+addr.Addr(((k*7+i)%64)*4), uint32(k))
					_ = ld(c, base+addr.Addr((k%64)*4))
				}
				atomic(c, syncWord, msg.AtomicAdd, 1)
			})
		}
		simulate(t, m)
		return m
	}
	a, b := build(), build()
	if a.Run.Cycles != b.Run.Cycles || a.Run.TotalMessages() != b.Run.TotalMessages() {
		t.Fatalf("nondeterminism: cycles %d vs %d, messages %d vs %d",
			a.Run.Cycles, b.Run.Cycles, a.Run.TotalMessages(), b.Run.TotalMessages())
	}
}

func TestOccupancySampled(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	program(m, 0, func(c *cluster.Core) {
		base := addr.Addr(addr.HeapBase)
		for i := 0; i < 200; i++ {
			st(c, base+addr.Addr(i*32), 1)
			c.Do(cluster.Op{Kind: cluster.OpWork, Cycles: 50})
		}
	})
	simulate(t, m)
	if m.Run.Occupancy.Samples() == 0 {
		t.Fatal("no occupancy samples taken")
	}
	if m.Run.Occupancy.MaxTotal() == 0 {
		t.Fatal("sampler saw an always-empty directory")
	}
}

func TestInstructionFetchTraffic(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	program(m, 0, func(c *cluster.Core) {
		c.SetCode(addr.CodeBase, 8<<10) // footprint larger than the 2KB L1I
		for i := 0; i < 3000; i++ {
			c.Do(cluster.Op{Kind: cluster.OpWork, Cycles: 1})
		}
	})
	simulate(t, m)
	if m.Run.Messages[msg.InstrReq] == 0 {
		t.Fatal("no instruction requests with an 8KB footprint")
	}
}

// TestTraceCapturesProtocolEvents: every protocol step leaves a record
// named by its edge, with the line and cluster it involved.
func TestTraceCapturesProtocolEvents(t *testing.T) {
	a := addr.Addr(addr.HeapBase)
	cases := []struct {
		name  string
		setup func(m *Machine)
		want  []trace.Record // Event, Site prefix, Line and Cluster must match
	}{
		{"recall", func(m *Machine) {
			program(m, 0, func(c *cluster.Core) {
				st(c, a, 1)
				uncStore(c, syncWord, 1)
			})
			program(m, 8, func(c *cluster.Core) {
				spinUntil(c, syncWord, 1)
				_ = ld(c, a) // forces a recall: probe + writeback
			})
		}, []trace.Record{
			{Event: "msi.read_recalls_modified", Site: "home", Cluster: 1},
			{Event: "l2.probe_wb_data", Site: "cl0", Cluster: 0},
			{Event: "msi.recall_wb_data", Site: "home", Cluster: 0},
		}},
		// Overflowing one L2 set evicts the clean first line, whose read
		// release the home then handles.
		{"eviction", func(m *Machine) {
			setStride := addr.Addr(m.Cfg.L2Size / m.Cfg.L2Assoc)
			program(m, 0, func(c *cluster.Core) {
				for i := 0; i <= m.Cfg.L2Assoc; i++ {
					_ = ld(c, a+addr.Addr(i)*setStride)
				}
			})
		}, []trace.Record{
			{Event: "l2.evict_clean_readrel", Site: "cl0", Cluster: 0},
			{Event: "msi.readrel_dealloc", Site: "home", Cluster: 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(t, hwccCfg(2))
			m.Run.Trace = trace.NewSink(0)
			tc.setup(m)
			simulate(t, m)
			recs := m.Run.Trace.Records()
			for _, want := range tc.want {
				found := false
				for _, r := range recs {
					found = found || (r.Event == want.Event && strings.HasPrefix(r.Site, want.Site) &&
						r.Line == uint64(addr.LineOf(a).Base()) && r.Cluster == want.Cluster)
				}
				if !found {
					var b strings.Builder
					_ = m.Run.Trace.WriteText(&b)
					t.Fatalf("no %s record for line %#x from %s*, cluster %d:\n%s",
						want.Event, uint64(a), want.Site, want.Cluster, b.String())
				}
			}
		})
	}
}

// TestUncachedAtL3MarksEveryUncachedOp: the edge counts each atomic and
// uncached operation the L3 applies, not only uncached loads.
func TestUncachedAtL3MarksEveryUncachedOp(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	m.Run.Coverage = trace.NewCoverage()
	program(m, 0, func(c *cluster.Core) {
		atomic(c, syncWord, msg.AtomicAdd, 1)
		uncStore(c, syncWord+4, 2)
	})
	simulate(t, m)
	if n := m.Run.Coverage.Count(trace.EdgeHomeUncachedAtL3); n != 2 {
		t.Fatalf("%v marked %d times for one atomic and one uncached store, want 2", trace.EdgeHomeUncachedAtL3, n)
	}
}

func TestSimulateCycleLimit(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	program(m, 0, func(c *cluster.Core) {
		for { // never terminates
			c.Do(cluster.Op{Kind: cluster.OpWork, Cycles: 100})
		}
	})
	err := m.Simulate(5_000)
	if err == nil || !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
}

func TestCoarseRegionRejectsOverlap(t *testing.T) {
	m := newMachine(t, cohesionCfg(1))
	if err := m.AddCoarseRegion(addr.Range{Base: addr.StackBase, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddCoarseRegion(addr.Range{Base: addr.StackBase + 64, Size: 64}); err == nil {
		t.Fatal("overlapping coarse region accepted")
	}
	// Outside Cohesion the calls are no-ops and never fail.
	hm := newMachine(t, hwccCfg(1))
	if err := hm.AddCoarseRegion(addr.Range{Base: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	hm.PresetSWcc(addr.Range{Base: 0, Size: 1}) // no-op without a fine table
}

// CheckInvariants must actually detect corruption: fabricate disagreement
// between an L2 and the directory and confirm the checker fires.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	a := addr.Addr(addr.HeapBase)
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 1) // Modified in cluster 0, tracked
	})
	simulate(t, m)

	// Corrupt: flip the owner's cached line to "incoherent" — a coherent
	// directory entry now points at an incoherent L2 line.
	e := m.Clusters[0].L2().Peek(addr.LineOf(a))
	if e == nil {
		t.Fatal("setup failed")
	}
	e.Incoherent = true
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("corruption not detected")
	}
	e.Incoherent = false
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("restored state still flagged: %v", err)
	}

	// Corrupt the other direction: drop the directory entry under a live
	// coherent line.
	bank := region.HomeBankOfLine(addr.LineOf(a), m.Cfg.L3Banks)
	m.Homes[bank].Directory().Remove(addr.LineOf(a))
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("orphaned coherent line not detected")
	}
}
