// Package rt is the Cohesion runtime: the software half of the hybrid
// memory model (paper §3.3, §3.5). It provides
//
//   - the Table 2 programmer API: Malloc/Free on the coherent heap,
//     CohMalloc/CohFree on the incoherent heap, and the
//     CohSWccRegion/CohHWccRegion domain-transition calls, implemented as
//     uncached atomics on the fine-grain region table;
//   - the Task Centric Memory Model's bulk-synchronous substrate: a
//     global task queue driven by atomic fetch-and-add and a
//     sense-reversing barrier of uncached operations, both generating the
//     real "Uncached/Atomic" traffic the paper's figures account for;
//   - region-table initialization at load time: coarse-grain SWcc ranges
//     for the code segment, per-core stacks, and immutable globals, and
//     SWcc fine-table bits for the incoherent heap;
//   - the Ctx handle kernels program against: loads, stores, atomics,
//     software flush/invalidate, stack scratch, and compute-work ops.
package rt

import (
	"fmt"
	"math"

	"cohesion/internal/addr"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/machine"
	"cohesion/internal/msg"
	"cohesion/internal/region"
)

// Segment sizes carved out at load time.
const (
	codeSegBytes    = 1 << 20  // coarse-SWcc code region
	globalSegBytes  = 24 << 20 // immutable globals (coarse-SWcc)
	heapBytes       = 256 << 20
	cohHeapBytes    = 256 << 20
	syncSegBytes    = 1 << 20 // uncached runtime words (barrier, queues)
	maxParallelFors = 1 << 14
)

// Runtime ties a machine to its software runtime state.
type Runtime struct {
	M        *machine.Machine
	Heap     *Heap // coherent heap (Table 2 malloc)
	CohHeap  *Heap // incoherent heap (Table 2 coh_malloc)
	Globals  *Heap // immutable global data (coarse-grain SWcc region)
	NWorkers int

	barCount  addr.Addr
	barSense  addr.Addr
	queueBase addr.Addr
	syncLimit addr.Addr // end of this partition's synchronization segment
}

// New sets up the runtime for a machine: segment layout, coarse regions,
// and the incoherent heap's initial SWcc table bits. workers is the number
// of cores that will run programs (they must call Barrier together).
func New(m *machine.Machine, workers int) (*Runtime, error) {
	return NewPartition(m, workers, 0, 1)
}

// NewPartition sets up one of nslots co-scheduled applications sharing a
// machine (the paper's §2.3 use case: the runtime "managing coherence
// needs across applications"). Each partition receives disjoint slices of
// the heaps, the immutable-globals segment, and the synchronization words
// (its barrier and task queue are private); the code segment, stacks, and
// region tables are machine-wide. Callers must spawn each partition's
// workers on disjoint cores.
func NewPartition(m *machine.Machine, workers, slot, nslots int) (*Runtime, error) {
	if workers < 1 || workers > m.Cfg.Cores() {
		return nil, fmt.Errorf("rt: %d workers on a %d-core machine", workers, m.Cfg.Cores())
	}
	if nslots < 1 || slot < 0 || slot >= nslots {
		return nil, fmt.Errorf("rt: bad partition %d/%d", slot, nslots)
	}
	heapSlice := heapBytes / uint64(nslots)
	cohSlice := cohHeapBytes / uint64(nslots)
	globSlice := globalSegBytes / uint64(nslots)
	syncSlice := uint64(syncSegBytes / nslots)
	r := &Runtime{
		M:        m,
		NWorkers: workers,
		Heap: NewHeap("coherent",
			addr.Range{Base: addr.HeapBase + addr.Addr(uint64(slot)*heapSlice), Size: heapSlice}, 16),
		CohHeap: NewHeap("incoherent",
			addr.Range{Base: addr.CohHeapBase + addr.Addr(uint64(slot)*cohSlice), Size: cohSlice}, 64),
		Globals: NewHeap("globals",
			addr.Range{Base: addr.GlobalBase + syncSegBytes + addr.Addr(uint64(slot)*globSlice), Size: globSlice}, 32),
	}
	syncBase := addr.GlobalBase + addr.Addr(uint64(slot)*syncSlice)
	r.barCount = syncBase
	r.barSense = syncBase + 4
	r.queueBase = syncBase + 64
	r.syncLimit = syncBase + addr.Addr(syncSlice)

	// Load-time coarse-grain SWcc regions (paper §3.5): code, constant
	// (immutable) data, per-core stacks. Machine-wide; the first partition
	// registers them.
	if m.Coarse == nil || m.Coarse.Len() == 0 {
		stackSpan := uint64(m.Cfg.Cores() * m.Cfg.StackBytesPerCore)
		for _, reg := range []addr.Range{
			{Base: addr.CodeBase, Size: codeSegBytes},
			{Base: addr.GlobalBase + syncSegBytes, Size: globalSegBytes},
			{Base: addr.StackBase, Size: stackSpan},
		} {
			if err := m.AddCoarseRegion(reg); err != nil {
				return nil, err
			}
		}
		// The incoherent heap starts in the SWcc domain (paper §3.6: "All
		// lines that may transition between coherence domains are initially
		// allocated using the incoherent heap ... the initial state of
		// these lines is SWcc"), recorded in the fine-grain table.
		m.PresetSWcc(addr.Range{Base: addr.CohHeapBase, Size: cohHeapBytes})
	}
	return r, nil
}

// Malloc allocates on the coherent heap: data is always HWcc (Table 2).
func (r *Runtime) Malloc(size uint64) addr.Addr { return r.Heap.MustAlloc(size) }

// Free releases a coherent-heap allocation.
func (r *Runtime) Free(p addr.Addr) {
	if err := r.Heap.Free(p); err != nil {
		panic(err)
	}
}

// CohMalloc allocates on the incoherent heap: lines start SWcc and may
// transition between domains (Table 2; 64-byte minimum allocation).
func (r *Runtime) CohMalloc(size uint64) addr.Addr { return r.CohHeap.MustAlloc(size) }

// CohFree releases an incoherent-heap allocation.
func (r *Runtime) CohFree(p addr.Addr) {
	if err := r.CohHeap.Free(p); err != nil {
		panic(err)
	}
}

// GlobalAlloc allocates immutable input data; under Cohesion it falls in a
// coarse-grain SWcc region and is never tracked by the directory.
func (r *Runtime) GlobalAlloc(size uint64) addr.Addr { return r.Globals.MustAlloc(size) }

// StackOf returns a core's fixed-size private stack range (paper §3.5:
// fixed-size stacks were found sufficient).
func (r *Runtime) StackOf(coreID int) addr.Range {
	return addr.Range{
		Base: addr.StackBase + addr.Addr(coreID*r.M.Cfg.StackBytesPerCore),
		Size: uint64(r.M.Cfg.StackBytesPerCore),
	}
}

// IsSWccDomain reports whether an address currently belongs to the SWcc
// domain: everything under pure SWcc, nothing under pure HWcc, and the
// region tables' verdict under Cohesion. Kernels use it to decide whether
// explicit flush/invalidate instructions are required for a structure.
func (r *Runtime) IsSWccDomain(a addr.Addr) bool {
	switch r.M.Cfg.Mode {
	case config.SWcc:
		return true
	case config.HWcc:
		return false
	}
	if r.M.Coarse != nil && r.M.Coarse.Contains(a) {
		return true
	}
	return r.M.Fine != nil && r.M.Fine.IsSWcc(a)
}

// --- host-side data initialization (pre-run) ---

// WriteWord/ReadWord access the backing store directly; used by kernel
// setup and verification outside simulated time.
func (r *Runtime) WriteWord(a addr.Addr, v uint32) { r.M.Store.WriteWord(a, v) }
func (r *Runtime) ReadWord(a addr.Addr) uint32     { return r.M.Store.ReadWord(a) }

// WriteF32/ReadF32 are float32 views of simulated words.
func (r *Runtime) WriteF32(a addr.Addr, f float32) { r.M.Store.WriteWord(a, math.Float32bits(f)) }
func (r *Runtime) ReadF32(a addr.Addr) float32     { return math.Float32frombits(r.M.Store.ReadWord(a)) }

// --- worker contexts ---

// Ctx is the per-worker handle kernels program against. Load, Atomic,
// UncLoad, UncStore and Sync park the calling program coroutine until the
// simulated operation completes; the other operations are queued, and
// issue in program order with unchanged timing.
type Ctx struct {
	rt       *Runtime
	c        *cluster.Core
	sense    uint32
	phase    int
	stack    addr.Range
	stackTop addr.Addr
}

// Spawn starts a worker program on the given global core. The body runs
// as a coroutine inside the simulation; all workers must reach the
// same sequence of Barrier/ParallelFor calls.
func (r *Runtime) Spawn(coreID int, codeBytes int, body func(x *Ctx)) {
	r.M.StartProgram(coreID, func(c *cluster.Core) {
		c.SetCode(addr.CodeBase, codeBytes)
		st := r.StackOf(coreID)
		x := &Ctx{rt: r, c: c, stack: st, stackTop: st.Base}
		body(x)
	})
}

// Mode reports the run's memory model.
func (x *Ctx) Mode() config.Mode { return x.rt.M.Cfg.Mode }

// CoreID returns the worker's global core number.
func (x *Ctx) CoreID() int { return x.c.ID }

// Runtime returns the owning runtime.
func (x *Ctx) Runtime() *Runtime { return x.rt }

// Load returns the word at a. Loads whose addresses are known up front
// are cheaper gathered.
func (x *Ctx) Load(a addr.Addr) uint32 {
	return x.c.Do(cluster.Op{Kind: cluster.OpLoad, Addr: a})
}

// Gather queues a load of the word at a; the next Sync returns its value.
// It issues where a Load would, so a batch of gathered loads reads the
// same values at the same cycles as Loads, for one coroutine round trip.
// Between a Gather and its Sync, no load's address or issue may depend
// on a value from the same batch, and no code may read simulated state
// (IsSWccDomain through FlushIfSWcc/InvIfSWcc, the clock, RaceTrapped).
func (x *Ctx) Gather(a addr.Addr) { x.c.Gather(a) }

// Sync parks the program until every queued operation has completed and
// returns the values of the loads gathered since the last Sync, in
// program order. The slice is reused by the next batch.
func (x *Ctx) Sync() []uint32 { return x.c.Sync() }

// Store writes the word at a. Stores are result-free, so they are issued
// asynchronously: the program keeps running (host-side) while the machine
// drains the store at its normal issue slot, preserving per-core program
// order and exact timing while skipping a coroutine switch per store.
func (x *Ctx) Store(a addr.Addr, v uint32) {
	x.c.DoAsync(cluster.Op{Kind: cluster.OpStore, Addr: a, Value: v})
}

// LoadF32/StoreF32 are float32 views.
func (x *Ctx) LoadF32(a addr.Addr) float32     { return math.Float32frombits(x.Load(a)) }
func (x *Ctx) StoreF32(a addr.Addr, f float32) { x.Store(a, math.Float32bits(f)) }

// Work models n cycles of non-memory computation (arithmetic).
func (x *Ctx) Work(n int) {
	if n > 0 {
		x.c.DoAsync(cluster.Op{Kind: cluster.OpWork, Cycles: int64(n)})
	}
}

// Atomic performs an uncached read-modify-write at the L3, returning the
// old value (the paper's atom.* instructions).
func (x *Ctx) Atomic(a addr.Addr, op msg.AtomicOp, operand uint32) uint32 {
	return x.c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: a, AOp: op, Value: operand})
}

// AtomicAdd is fetch-and-add; it returns the pre-add value.
func (x *Ctx) AtomicAdd(a addr.Addr, v uint32) uint32 { return x.Atomic(a, msg.AtomicAdd, v) }

// AtomicCAS swaps in swap when the word equals compare; it returns the
// observed value.
func (x *Ctx) AtomicCAS(a addr.Addr, compare, swap uint32) uint32 {
	return x.c.Do(cluster.Op{Kind: cluster.OpAtomic, Addr: a, AOp: msg.AtomicCAS, Value: compare, Op2: swap})
}

// UncLoad/UncStore access a word at the L3, bypassing the local caches.
func (x *Ctx) UncLoad(a addr.Addr) uint32 {
	return x.c.Do(cluster.Op{Kind: cluster.OpUncLoad, Addr: a})
}

// UncStore writes a word at the L3, bypassing the local caches.
func (x *Ctx) UncStore(a addr.Addr, v uint32) {
	x.c.Do(cluster.Op{Kind: cluster.OpUncStore, Addr: a, Value: v})
}

// FlushLine issues the software WB instruction for the line containing a.
func (x *Ctx) FlushLine(a addr.Addr) {
	x.c.DoAsync(cluster.Op{Kind: cluster.OpFlush, Addr: a})
}

// InvLine issues the software INV instruction for the line containing a.
func (x *Ctx) InvLine(a addr.Addr) {
	x.c.DoAsync(cluster.Op{Kind: cluster.OpInv, Addr: a})
}

// FlushRange writes back every line of [base, base+size) (eager writeback
// of task output data, paper Fig 3). The line walk is inline — no slice of
// covered lines is materialized on this hot path.
func (x *Ctx) FlushRange(base addr.Addr, size uint64) {
	if size == 0 {
		return
	}
	for a, end := addr.LineAlign(base), base+addr.Addr(size); a < end; a += addr.LineBytes {
		x.FlushLine(a)
	}
}

// InvRange invalidates every line of [base, base+size) (lazy invalidation
// of input data, paper Fig 3).
func (x *Ctx) InvRange(base addr.Addr, size uint64) {
	if size == 0 {
		return
	}
	for a, end := addr.LineAlign(base), base+addr.Addr(size); a < end; a += addr.LineBytes {
		x.InvLine(a)
	}
}

// FlushIfSWcc flushes the range only when it lives in the SWcc domain —
// the Cohesion variant of a kernel keeps its coherence instructions only
// for software-managed data (paper §4.1).
func (x *Ctx) FlushIfSWcc(base addr.Addr, size uint64) {
	if x.rt.IsSWccDomain(base) {
		x.FlushRange(base, size)
	}
}

// InvIfSWcc invalidates the range only when it lives in the SWcc domain.
func (x *Ctx) InvIfSWcc(base addr.Addr, size uint64) {
	if x.rt.IsSWccDomain(base) {
		x.InvRange(base, size)
	}
}

// --- Cohesion domain transitions (Table 2) ---

// CohSWccRegion moves [ptr, ptr+size) into the SWcc domain. The runtime
// groups lines by fine-grain-table word and issues one atom.or per word;
// the directory snoops the writes and performs the HWcc=>SWcc protocol
// before acknowledging (paper §3.6). Outside Cohesion mode it is a no-op.
func (x *Ctx) CohSWccRegion(ptr addr.Addr, size uint64) {
	x.tableUpdate(ptr, size, true)
}

// CohHWccRegion moves [ptr, ptr+size) into the HWcc domain (atom.and).
func (x *Ctx) CohHWccRegion(ptr addr.Addr, size uint64) {
	x.tableUpdate(ptr, size, false)
}

// RaceTrapped reports and clears a pending Case 5b race exception raised
// by an earlier CohHWccRegion call, when the machine runs with
// TrapOnRace (paper §3.6's debugging aid). Without the trap the capture
// still converges; the merged value of a raced word is undefined.
func (x *Ctx) RaceTrapped() bool { return x.c.TakeRaceTrap() }

func (x *Ctx) tableUpdate(ptr addr.Addr, size uint64, toSW bool) {
	if x.Mode() != config.Cohesion || size == 0 {
		return
	}
	banks := x.rt.M.Cfg.L3Banks
	// Group line bits by table word (the hybrid.tbloff hash keeps a word's
	// lines within one bank, so each atomic lands on the lines' home bank).
	masks := make(map[addr.Addr]uint32)
	var order []addr.Addr
	for _, l := range addr.LinesCovering(ptr, size) {
		wa := region.TblWordAddr(l.Base(), banks)
		if _, ok := masks[wa]; !ok {
			order = append(order, wa)
		}
		masks[wa] |= 1 << region.TblBitIndex(l.Base())
	}
	for _, wa := range order {
		if toSW {
			x.Atomic(wa, msg.AtomicOr, masks[wa])
		} else {
			x.Atomic(wa, msg.AtomicAnd, ^masks[wa])
		}
	}
}

// --- BSP substrate ---

// backoff bounds for barrier/idle spinning.
const (
	spinMin = 16
	spinMax = 256
)

// Barrier joins the runtime's global sense-reversing barrier: an atomic
// arrival count plus an uncached sense word that spinning workers poll
// with exponential backoff.
func (x *Ctx) Barrier() {
	next := x.sense + 1
	arrived := x.AtomicAdd(x.rt.barCount, 1) + 1
	if arrived == uint32(x.rt.NWorkers) {
		x.UncStore(x.rt.barCount, 0)
		x.UncStore(x.rt.barSense, next)
		x.rt.M.Run.MarkPhase(uint64(x.rt.M.Q.Now()))
	} else {
		wait := spinMin
		for x.UncLoad(x.rt.barSense) != next {
			x.Work(wait)
			if wait < spinMax {
				wait *= 2
			}
		}
	}
	x.sense = next
}

// ParallelFor executes ntasks tasks across all workers via the global
// atomic task queue, then joins a barrier. Every worker must call it with
// the same arguments in the same order (the bulk-synchronous pattern).
// body receives the task index.
func (x *Ctx) ParallelFor(ntasks int, body func(task int)) {
	x.phase++
	if x.phase >= maxParallelFors {
		panic("rt: too many ParallelFor phases")
	}
	ctr := x.rt.queueBase + addr.Addr(4*x.phase)
	for {
		idx := int(x.AtomicAdd(ctr, 1))
		if idx >= ntasks {
			break
		}
		body(idx)
	}
	x.Barrier()
}

// ParallelForDistributed is ParallelFor with per-worker task counters
// instead of one global queue: worker w starts with the task range
// [w*n/W, (w+1)*n/W) behind a private atomic counter, and workers that
// exhaust their own range harvest directly from other workers' counters.
// This spreads the task-dequeue atomics across L3 banks instead of
// aiming them all at one, while keeping exactly-once execution: every
// claim is a fetch-and-add on some worker's counter. Termination requires
// each worker to sweep every other worker's counter once, an
// O(workers^2) scan — BenchmarkAblationTaskQueue shows that at simulated
// scales this costs more than the central-counter contention it removes,
// so the default ParallelFor keeps the paper's central queue.
func (x *Ctx) ParallelForDistributed(ntasks int, body func(task int)) {
	x.phase++
	if x.phase >= maxParallelFors {
		panic("rt: too many ParallelFor phases")
	}
	W := x.rt.NWorkers
	// Per-phase counter block, one counter per worker. Counters are strided
	// at DRAM-row granularity (2 KB) so they land in different L3 banks —
	// the whole point is spreading dequeue traffic across banks. Fresh
	// space per phase keeps the counters zero-initialized; the guard bounds
	// the phase count this buys within the partition's sync segment.
	const ctrStride = 2048
	base := x.rt.queueBase + addr.Addr(4*maxParallelFors) + addr.Addr(x.phase*W*ctrStride)
	if base+addr.Addr(W*ctrStride) >= x.rt.syncLimit {
		panic("rt: distributed queue space exhausted")
	}
	ctr := func(w int) addr.Addr { return base + addr.Addr(w*ctrStride) }
	lo := func(w int) int { return w * ntasks / W }
	hi := func(w int) int { return (w + 1) * ntasks / W }

	// Gang-local worker identity: arrival order at a registration counter
	// (word 1 of worker 0's counter line), stable within the phase.
	me := int(x.AtomicAdd(ctr(0)+4, 1)) % W

	run := func(w int) bool {
		idx := int(x.AtomicAdd(ctr(w), 1)) + lo(w)
		if idx >= hi(w) {
			return false
		}
		body(idx)
		return true
	}
	for run(me) {
	}
	// Harvest leftover tasks from the other workers' ranges.
	for off := 1; off < W; off++ {
		v := (me + off) % W
		for run(v) {
		}
	}
	x.Barrier()
}

// --- stack scratch ---

// StackAlloc reserves words of the worker's private stack frame and
// returns their base address; FrameReset pops everything. Stack accesses
// are where the paper's HWcc directory spends ~15% of its entries.
func (x *Ctx) StackAlloc(words int) addr.Addr {
	need := addr.Addr(words * addr.WordBytes)
	if x.stackTop+need > x.stack.End() {
		panic(fmt.Sprintf("rt: stack overflow on core %d", x.c.ID))
	}
	base := x.stackTop
	x.stackTop += need
	return base
}

// FrameReset pops the worker's whole scratch stack.
func (x *Ctx) FrameReset() { x.stackTop = x.stack.Base }
