package event

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
)

// refQueue is the engine's original implementation — container/heap over
// interface-boxed items — kept here as the semantic reference. The
// production queue must fire the exact same (cycle, order) sequence for any
// interleaving of At, After, Step, Run, and RunUntil.
type refQueue struct {
	h    refHeap
	now  Cycle
	seq  uint64
	fire uint64
}

type refItem struct {
	at  Cycle
	seq uint64
	fn  Func
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = refItem{}
	*h = old[:n-1]
	return it
}

func (q *refQueue) Now() Cycle    { return q.now }
func (q *refQueue) Fired() uint64 { return q.fire }

func (q *refQueue) At(at Cycle, fn Func) {
	if at < q.now {
		panic("event: scheduled in the past")
	}
	q.seq++
	heap.Push(&q.h, refItem{at: at, seq: q.seq, fn: fn})
}

func (q *refQueue) After(delay Cycle, fn Func) { q.At(q.now+delay, fn) }

func (q *refQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	it := heap.Pop(&q.h).(refItem)
	q.now = it.at
	q.fire++
	it.fn()
	return true
}

func (q *refQueue) Run(limit uint64) (executed uint64, drained bool) {
	for {
		if limit != 0 && executed >= limit {
			return executed, false
		}
		if !q.Step() {
			return executed, true
		}
		executed++
	}
}

func (q *refQueue) RunUntil(deadline Cycle) bool {
	for len(q.h) > 0 && q.h[0].at <= deadline {
		q.Step()
	}
	return len(q.h) == 0
}

// TestConformanceWithReferenceHeap drives the production queue and the old
// container/heap reference through identical random interleavings of At,
// After, Run, and RunUntil — including events that schedule more events —
// and asserts the fired sequences, Now(), Fired(), and drain reports agree
// step for step. This pins the 4-ary heap to the original's semantics.
func TestConformanceWithReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var r refQueue
		var gotQ, gotR []Cycle

		// Cascading workload: each fired event may schedule 0-2 more, with
		// the same deterministic pattern on both queues.
		var spawnQ, spawnR func(depth int) Func
		spawnQ = func(depth int) Func {
			return func() {
				gotQ = append(gotQ, q.Now())
				if depth < 4 {
					q.After(Cycle(depth%3), spawnQ(depth+1))
				}
			}
		}
		spawnR = func(depth int) Func {
			return func() {
				gotR = append(gotR, r.Now())
				if depth < 4 {
					r.After(Cycle(depth%3), spawnR(depth+1))
				}
			}
		}

		for step := 0; step < 200; step++ {
			switch rng.Intn(5) {
			case 0: // absolute schedule
				at := q.Now() + Cycle(rng.Intn(20))
				q.At(at, spawnQ(0))
				r.At(at, spawnR(0))
			case 1: // relative schedule
				d := Cycle(rng.Intn(10))
				q.After(d, spawnQ(1))
				r.After(d, spawnR(1))
			case 2: // bounded run
				limit := uint64(rng.Intn(8))
				eq, dq := q.Run(limit)
				er, dr := r.Run(limit)
				if eq != er || dq != dr {
					t.Fatalf("seed %d: Run(%d) = (%d,%v) vs ref (%d,%v)", seed, limit, eq, dq, er, dr)
				}
			case 3: // run to a deadline
				dl := q.Now() + Cycle(rng.Intn(15))
				if dq, dr := q.RunUntil(dl), r.RunUntil(dl); dq != dr {
					t.Fatalf("seed %d: RunUntil(%d) = %v vs ref %v", seed, dl, dq, dr)
				}
			case 4: // single step
				if sq, sr := q.Step(), r.Step(); sq != sr {
					t.Fatalf("seed %d: Step = %v vs ref %v", seed, sq, sr)
				}
			}
			if q.Now() != r.Now() || q.Fired() != r.Fired() || q.Pending() != len(r.h) {
				t.Fatalf("seed %d step %d: state (now=%d fired=%d pending=%d) vs ref (now=%d fired=%d pending=%d)",
					seed, step, q.Now(), q.Fired(), q.Pending(), r.Now(), r.Fired(), len(r.h))
			}
		}
		q.Run(0)
		r.Run(0)
		if len(gotQ) != len(gotR) {
			t.Fatalf("seed %d: fired %d events vs ref %d", seed, len(gotQ), len(gotR))
		}
		for i := range gotQ {
			if gotQ[i] != gotR[i] {
				t.Fatalf("seed %d: firing sequences diverge at %d: %d vs %d", seed, i, gotQ[i], gotR[i])
			}
		}
	}
}

// nop is a package-level event body: taking its address allocates nothing,
// isolating the queue's own allocation behaviour.
func nop() {}

// TestZeroAllocSteadyState locks in the zero-allocations-per-event
// property: once the backing slice has grown to the working-set size,
// scheduling and firing allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	var q Queue
	// Warm up: fill the spare list with slot arrays deep enough for the
	// steady-state batch. The sliding 64-cycle batch window below visits
	// every slot of the wheel over time, taking and returning an array
	// each time.
	for d := 0; d < wheelSize; d++ {
		for k := 0; k < 16; k++ {
			q.After(Cycle(d), nop)
		}
	}
	q.Run(0)

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			q.After(Cycle(i%64), nop)
		}
		q.Run(0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %.1f times per 1024-event batch, want 0", allocs)
	}
}

// TestFreshQueueAllocatesWhatItHolds locks in that a queue's slot arrays
// scale with the slots a run occupies at once, not with the wheel: a
// fresh queue firing 1,000 events over 100 cycles holds 100 arrays.
func TestFreshQueueAllocatesWhatItHolds(t *testing.T) {
	q := new(Queue)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		q.At(Cycle(i%100), nop)
	}
	q.Run(0)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("1,000 events over 100 cycles allocated %d bytes", got)
	if got >= 64<<10 {
		t.Fatalf("1,000 events over 100 cycles allocated %d bytes, want under 64 KiB", got)
	}
	if q.Fired() != 1000 {
		t.Fatalf("fired %d events, want 1000", q.Fired())
	}
}

// BenchmarkScheduleFire1M schedules and fires events in 1024-deep batches
// (the queue depth a busy simulation holds), one million-plus events per
// second of benchmark time. The -benchmem allocs/op figure must be 0 in
// steady state, the property TestZeroAllocSteadyState asserts.
func BenchmarkScheduleFire1M(b *testing.B) {
	var q Queue
	const batch = 1024
	for i := 0; i < batch; i++ { // pre-grow outside the timed region
		q.After(Cycle(i%64), nop)
	}
	q.Run(0)
	for i := 0; i < batch; i++ { // refill: the timed loop runs 1024 deep
		q.After(Cycle(i%64), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(Cycle(i%64), nop)
		q.Step()
	}
}

// BenchmarkScheduleFireDeep measures push/pop cost at a deep queue (64K
// pending events), where the 4-ary layout's shallower tree pays off.
func BenchmarkScheduleFireDeep(b *testing.B) {
	var q Queue
	const depth = 1 << 16
	for i := 0; i < depth; i++ {
		q.After(Cycle(i%4096), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After(Cycle(i%4096), nop)
		q.Step()
	}
}
