package runctl

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cohesion/internal/simerr"
)

// nonReproducible reports whether a stop's reason tags its stop point as
// dependent on host timing.
func nonReproducible(s *Stop) bool {
	return strings.Contains(s.Reason, "[non-reproducible stop point]")
}

func TestNewReturnsNilWhenNothingToEnforce(t *testing.T) {
	if c := New(context.Background(), Limits{}); c != nil {
		t.Fatal("New(Background, zero Limits) must be nil so the event loop skips the hook")
	}
	if c := New(nil, Limits{}); c != nil {
		t.Fatal("New(nil, zero Limits) must be nil")
	}
	if c := New(context.Background(), Limits{MaxEvents: 1}); c == nil {
		t.Fatal("a set budget must produce a controller")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c := New(ctx, Limits{}); c == nil {
		t.Fatal("a cancelable context must produce a controller")
	}
}

func TestEventBudgetStopsExactlyAtBudget(t *testing.T) {
	c := New(context.Background(), Limits{MaxEvents: 10})
	for fired := uint64(1); fired < 10; fired++ {
		if s := c.Check(fired, fired); s != nil {
			t.Fatalf("stopped early at event %d: %+v", fired, s)
		}
	}
	s := c.Check(10, 10)
	if s == nil {
		t.Fatal("event budget did not stop the run")
	}
	if !errors.Is(s.Sentinel, simerr.ErrBudgetExhausted) || nonReproducible(s) {
		t.Fatalf("stop = %+v, want deterministic ErrBudgetExhausted", s)
	}
}

func TestCycleBudgetStopsPastBudget(t *testing.T) {
	c := New(context.Background(), Limits{MaxCycles: 100})
	if s := c.Check(1, 100); s != nil {
		t.Fatalf("stopped at the budget cycle itself: %+v", s)
	}
	s := c.Check(2, 101)
	if s == nil || nonReproducible(s) || !errors.Is(s.Sentinel, simerr.ErrBudgetExhausted) {
		t.Fatalf("stop = %+v, want deterministic ErrBudgetExhausted past cycle 100", s)
	}
}

func TestCancellationIsAmortized(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	c := New(ctx, Limits{CheckEvery: 8})
	fired := uint64(0)
	// The first 7 checks are within the amortization window: no stop yet
	// even though the context is long dead.
	for i := 0; i < 7; i++ {
		fired++
		if s := c.Check(fired, fired); s != nil {
			t.Fatalf("canceled context observed inside the amortization window (event %d)", fired)
		}
	}
	fired++
	s := c.Check(fired, fired)
	if s == nil || !errors.Is(s.Sentinel, simerr.ErrCanceled) {
		t.Fatalf("stop = %+v, want ErrCanceled at the amortization boundary", s)
	}
	if !nonReproducible(s) {
		t.Fatalf("cancellation must be tagged non-reproducible: %q", s.Reason)
	}
}

func TestWallBudgetStops(t *testing.T) {
	c := New(context.Background(), Limits{WallBudget: time.Nanosecond, CheckEvery: 1})
	time.Sleep(time.Millisecond)
	s := c.Check(1, 1)
	if s == nil || !errors.Is(s.Sentinel, simerr.ErrBudgetExhausted) {
		t.Fatalf("stop = %+v, want ErrBudgetExhausted from the wall budget", s)
	}
	if !nonReproducible(s) {
		t.Fatalf("wall-clock stops must be tagged non-reproducible: %q", s.Reason)
	}
}

func TestClamp(t *testing.T) {
	ceiling := Limits{MaxEvents: 100, MaxCycles: 1000, WallBudget: time.Second, MemSoftBytes: 1 << 20}
	cases := []struct {
		name string
		in   Limits
		want Limits
	}{
		{"zero adopts every ceiling", Limits{}, ceiling},
		{"looser budgets are tightened",
			Limits{MaxEvents: 200, MaxCycles: 5000, WallBudget: time.Minute, MemSoftBytes: 1 << 30}, ceiling},
		{"tighter budgets survive",
			Limits{MaxEvents: 5, MaxCycles: 7, WallBudget: time.Millisecond, MemSoftBytes: 16},
			Limits{MaxEvents: 5, MaxCycles: 7, WallBudget: time.Millisecond, MemSoftBytes: 16}},
		{"checkpoint schedule passes through",
			Limits{CheckpointEvery: 9, CheckpointAt: []uint64{3}},
			Limits{MaxEvents: 100, MaxCycles: 1000, WallBudget: time.Second, MemSoftBytes: 1 << 20,
				CheckpointEvery: 9, CheckpointAt: []uint64{3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Clamp(tc.in, ceiling)
			if got.MaxEvents != tc.want.MaxEvents || got.MaxCycles != tc.want.MaxCycles ||
				got.WallBudget != tc.want.WallBudget || got.MemSoftBytes != tc.want.MemSoftBytes ||
				got.CheckpointEvery != tc.want.CheckpointEvery || len(got.CheckpointAt) != len(tc.want.CheckpointAt) {
				t.Fatalf("Clamp = %+v, want %+v", got, tc.want)
			}
		})
	}
	// A zero ceiling imposes nothing.
	loose := Limits{MaxEvents: 1 << 40}
	if got := Clamp(loose, Limits{}); got.MaxEvents != loose.MaxEvents || got.WallBudget != 0 {
		t.Fatalf("Clamp with zero ceiling = %+v, want %+v unchanged", got, loose)
	}
}

func TestMemSoftLimitStops(t *testing.T) {
	// 1 byte soft limit: any live heap trips it. The memory check is the
	// sparsest of all (every CheckEvery*memEveryChecks events).
	c := New(context.Background(), Limits{MemSoftBytes: 1, CheckEvery: 1})
	var s *Stop
	for fired := uint64(1); fired <= memEveryChecks+1; fired++ {
		if s = c.Check(fired, fired); s != nil {
			break
		}
	}
	if s == nil || !errors.Is(s.Sentinel, simerr.ErrBudgetExhausted) {
		t.Fatalf("stop = %+v, want ErrBudgetExhausted from the memory soft limit", s)
	}
}
