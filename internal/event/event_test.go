package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var q Queue
	if q.Now() != 0 || q.Pending() != 0 || q.Fired() != 0 {
		t.Fatalf("zero value not clean: now=%d pending=%d fired=%d", q.Now(), q.Pending(), q.Fired())
	}
	if q.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestOrderingByCycle(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 30) })
	q.At(10, func() { got = append(got, 10) })
	q.At(20, func() { got = append(got, 20) })
	for q.Step() {
	}
	want := []int{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Now() != 30 {
		t.Fatalf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOWithinSameCycle(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	for q.Step() {
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events reordered at %d: %v", i, got[:i+1])
		}
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	var q Queue
	var fired Cycle
	q.At(10, func() {
		q.After(7, func() { fired = q.Now() })
	})
	for q.Step() {
	}
	if fired != 17 {
		t.Fatalf("After fired at %d, want 17", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(5, func() {})
	})
	for q.Step() {
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must execute in
	// strictly nondecreasing time and run to completion.
	var q Queue
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			q.After(1, step)
		}
	}
	q.At(0, step)
	for q.Step() {
	}
	if depth != 1000 {
		t.Fatalf("chain depth = %d, want 1000", depth)
	}
	if q.Now() != 999 {
		t.Fatalf("Now = %d, want 999", q.Now())
	}
}

// Property: for any set of scheduled cycles, execution order is the sorted
// order (stably, by insertion sequence).
func TestQuickSortedExecution(t *testing.T) {
	f := func(cycles []uint16) bool {
		var q Queue
		type tag struct {
			at  Cycle
			seq int
		}
		var got []tag
		for i, c := range cycles {
			at := Cycle(c)
			i := i
			q.At(at, func() { got = append(got, tag{at, i}) })
		}
		for q.Step() {
		}
		want := make([]tag, len(got))
		copy(want, got)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return len(got) == len(cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two identical runs produce identical firing sequences
// (determinism), even with interleaved same-cycle events.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Cycle {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var trace []Cycle
		var spawn func()
		spawn = func() {
			trace = append(trace, q.Now())
			if len(trace) < 500 {
				q.After(Cycle(rng.Intn(4)), spawn)
			}
		}
		for i := 0; i < 5; i++ {
			q.At(Cycle(rng.Intn(10)), spawn)
		}
		for q.Step() {
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var q Queue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.After(Cycle(i%64), func() {})
		q.Step()
	}
}
