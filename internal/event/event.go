// Package event provides the deterministic discrete-event simulation engine
// that drives the Cohesion machine model.
//
// The engine is a timing wheel backed by an overflow min-heap. Profiling
// showed the previous pure-heap design spending ~25% of whole-simulation
// CPU in sift/compare traffic: a simulation schedules almost every event a
// short, bounded latency ahead (cache and interconnect hops of a few
// cycles, DRAM accesses of a few hundred), so the O(log n) reordering work
// of a heap buys generality the workload never uses. The wheel makes the
// common case O(1): events within the wheel horizon are appended to the
// FIFO slot of their cycle, and because every slot holds exactly one cycle
// (the horizon equals the slot count), append order IS schedule order — the
// same (cycle, sequence) total order the heap maintained, witnessed by the
// conformance suite against the original container/heap implementation.
//
// Events beyond the horizon (retry timeouts, watchdog ticks, statistics
// samples) go to a small 4-ary overflow heap and migrate into the wheel as
// simulated time approaches them. Migration is eager — it happens whenever
// Now advances — which preserves the global ordering invariant: an overflow
// event always enters its slot before any same-cycle event can be scheduled
// directly, so slot FIFO order never contradicts sequence order.
//
// Events scheduled for the same cycle fire in the order they were
// scheduled, which makes every simulation run bit-for-bit reproducible: the
// machine model is single-threaded and all nondeterminism is confined to
// explicitly seeded PRNGs in workload generators. Scheduling and firing
// allocate nothing in steady state: slot runs and the overflow heap reuse
// their backing arrays.
package event

import "math/bits"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Func is the body of a scheduled event. It runs exactly once, at the cycle
// it was scheduled for.
type Func func()

type item struct {
	at  Cycle
	seq uint64
	fn  Func
}

// less orders items by cycle, ties broken by scheduling order. (at, seq)
// pairs are unique, so the order is total and any correct heap pops the
// exact same sequence — the determinism witness the tests pin down.
func (it item) less(o item) bool {
	return it.at < o.at || (it.at == o.at && it.seq < o.seq)
}

// ordered is the constraint for heap4 elements: a strict weak ordering on
// the concrete type. Instantiating the heap over a concrete type lets the
// compiler devirtualize and inline every comparison.
type ordered[T any] interface{ less(T) bool }

// heap4 is an inlined 4-ary min-heap over a reusable backing slice. The
// zero value is ready to use. It never shrinks its backing array, so in
// steady state push and pop perform no allocation.
type heap4[T ordered[T]] struct {
	s []T
}

func (h *heap4[T]) len() int { return len(h.s) }

// push inserts v, sifting it up toward the root.
func (h *heap4[T]) push(v T) {
	h.s = append(h.s, v)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !v.less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = v
}

// pop removes and returns the minimum. The caller must ensure the heap is
// non-empty. The vacated tail slot is zeroed so popped events release
// their closures to the collector.
func (h *heap4[T]) pop() T {
	s := h.s
	min := s[0]
	n := len(s) - 1
	v := s[n]
	var zero T
	s[n] = zero
	h.s = s[:n]
	if n > 0 {
		h.siftDown(v)
	}
	return min
}

// siftDown places v, conceptually at the root, into its final position.
func (h *heap4[T]) siftDown(v T) {
	s := h.s
	n := len(s)
	i := 0
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		m := c // index of the smallest child
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s[j].less(s[m]) {
				m = j
			}
		}
		if !s[m].less(v) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = v
}

// Wheel geometry. The horizon must comfortably cover the machine model's
// common latencies (cache stages of 1-30 cycles, interconnect hops of a
// few, DRAM accesses of a few hundred, NACK backoff up to ~6400); only
// rare long timers (retry timeouts at 25000, statistics samples) overflow
// to the heap.
const (
	wheelBits = 13
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// run holds the events of exactly one cycle within the wheel horizon, in
// schedule order. fns[:next] have fired; fns[next:] are pending. A run is
// live while its slot is occupied; a released run keeps its array on the
// queue's free list, so the next occupied slot reuses it.
type run struct {
	at   Cycle
	next int
	fns  []Func
}

// Queue is a discrete-event scheduler. The zero value is ready to use.
type Queue struct {
	now  Cycle
	seq  uint64
	fire uint64

	pending int // scheduled but not yet executed, wheel + far

	// cur is the run currently being drained (its cycle is now), or 0
	// when no drain is in progress. Same-cycle events scheduled while
	// draining append to the live run and fire this cycle.
	cur uint16

	// runs holds one run per concurrently occupied slot (at most
	// wheelSize, so a uint16 index reaches every one) and free the
	// indices of released runs for reuse, so a queue allocates one array
	// per concurrently occupied slot and, once warm, none at all.
	runs []run
	free []uint16

	far heap4[item] // events at >= now+wheelSize, ordered by (at, seq)

	// slots maps each cycle of the horizon to the index of its run in
	// runs, 0 for an empty slot; runs[0] is a placeholder, never a live
	// run. The slot index and occ hold no pointers and come after every
	// field that does, so the GC never looks at them.
	slots [wheelSize]uint16
	occ   [wheelSize / 64]uint64 // bit per slot: has pending events
}

// slotCap0 is the capacity of a new run's array; busy cycles beyond it
// grow their array through the normal append path, and the grown array
// stays with its run for reuse. Sized above the busiest per-cycle burst
// any kernel reaches at bench scale (17, on dmm/gjk), so growth stays
// rare.
const slotCap0 = 24

// push appends fn to the run of cycle at, which must be within the wheel
// horizon, taking a run for the slot if it has none.
func (q *Queue) push(at Cycle, fn Func) {
	i := at & wheelMask
	k := q.slots[i]
	if k == 0 {
		if n := len(q.free); n > 0 {
			k = q.free[n-1]
			q.free = q.free[:n-1]
		} else {
			if len(q.runs) == 0 {
				q.runs = append(q.runs, run{}) // index 0 means "no run"
			}
			k = uint16(len(q.runs))
			q.runs = append(q.runs, run{fns: make([]Func, 0, slotCap0)})
		}
		q.slots[i] = k
		q.runs[k].at = at
		q.occ[i>>6] |= 1 << (i & 63)
	}
	r := &q.runs[k]
	r.fns = append(r.fns, fn)
}

// Now reports the current simulated cycle: the cycle of the event being
// executed, or of the last executed event when called between events.
func (q *Queue) Now() Cycle { return q.now }

// Fired reports how many events have been executed so far.
func (q *Queue) Fired() uint64 { return q.fire }

// Pending reports how many events are scheduled but not yet executed.
func (q *Queue) Pending() int { return q.pending }

// At schedules fn to run at absolute cycle at. Scheduling in the past
// (at < Now) panics: it indicates a broken latency computation in the
// machine model, and silently reordering time would corrupt every
// downstream measurement.
func (q *Queue) At(at Cycle, fn Func) {
	if at < q.now {
		panic("event: scheduled in the past")
	}
	q.seq++
	q.pending++
	if at-q.now < wheelSize {
		q.push(at, fn)
		return
	}
	q.far.push(item{at: at, seq: q.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (q *Queue) After(delay Cycle, fn Func) {
	q.At(q.now+delay, fn)
}

// migrate moves overflow events whose cycle has entered the wheel horizon
// into their slots. Called whenever now advances, before any event at the
// newly covered cycles can fire or be scheduled, so heap pop order (which
// is sequence order) becomes slot FIFO order.
func (q *Queue) migrate() {
	for q.far.len() > 0 && q.far.s[0].at-q.now < wheelSize {
		it := q.far.pop()
		q.push(it.at, it.fn)
	}
}

// release retires the exhausted current run: frees its slot, zeroes the
// fn pointers so fired closures are collectable, and returns the run to
// the free list.
func (q *Queue) release() {
	r := &q.runs[q.cur]
	clear(r.fns)
	r.fns = r.fns[:0]
	r.next = 0
	i := r.at & wheelMask
	q.slots[i] = 0
	q.occ[i>>6] &^= 1 << (i & 63)
	q.free = append(q.free, q.cur)
	q.cur = 0
}

// scan returns the index of the first occupied slot at or after cycle
// `from` in circular order, or -1 if the wheel is empty. Slot cycles are
// within [now, now+wheelSize), so circular order from slot(from) is cycle
// order.
func (q *Queue) scan(from Cycle) int {
	start := int(from & wheelMask)
	w := start >> 6
	// First word: mask off slots before the start bit.
	if word := q.occ[w] &^ (1<<(start&63) - 1); word != 0 {
		return w<<6 + bits.TrailingZeros64(word)
	}
	// Remaining words in circular order; the loop's final iteration
	// revisits the first word, whose high bits are known clear, so any
	// hit there is a correctly wrapped low bit.
	for k := 1; k <= len(q.occ); k++ {
		i := (w + k) & (len(q.occ) - 1)
		if word := q.occ[i]; word != 0 {
			return i<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// next dequeues the earliest pending event, advancing now to its cycle.
// ok is false when the queue is empty. The hot path — more events in the
// run being drained — is a bounds check and an increment.
func (q *Queue) next() (fn Func, ok bool) {
	if q.cur != 0 {
		r := &q.runs[q.cur]
		if r.next < len(r.fns) {
			fn = r.fns[r.next]
			r.next++
			q.pending--
			return fn, true
		}
		q.release()
	}
	if i := q.scan(q.now); i >= 0 {
		q.cur = q.slots[i]
		r := &q.runs[q.cur]
		if r.at != q.now {
			q.now = r.at
			q.migrate()
			r = &q.runs[q.cur] // migrate's pushes may have grown runs
		}
		fn = r.fns[r.next]
		r.next++
		q.pending--
		return fn, true
	}
	if q.far.len() > 0 {
		it := q.far.pop()
		q.now = it.at
		q.migrate()
		q.pending--
		return it.fn, true
	}
	return fn, false
}

// Step executes the single earliest pending event and reports whether one
// existed.
func (q *Queue) Step() bool {
	fn, ok := q.next()
	if !ok {
		return false
	}
	q.fire++
	fn()
	return true
}
