// Package runctl is the run-lifecycle layer: cooperative cancellation
// and resource budgets for individual simulations. A Controller sits in
// the machine's event loop and decides, once per event, whether the run
// may continue. The checks are split by cost and determinism:
//
//   - Deterministic budgets (max events, max sim-cycles) are a pair of
//     integer compares evaluated on every event, so a run stopped by one
//     ends at an exact, reproducible point in the event sequence — same
//     seed + same budget ⇒ bit-identical partial machine state.
//   - Non-deterministic checks (context cancellation, wall-clock
//     deadline, memory soft limit) are amortized: they run once every
//     CheckEvery events, so the 10 ns/event engine never pays a syscall
//     or an atomic load per event. Their stop points depend on host
//     timing and are tagged non-reproducible in the diagnostics.
//
// When nothing is configured — background context, zero Limits — New
// returns nil and the event loop's only cost is one nil compare.
package runctl

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cohesion/internal/simerr"
)

// DefaultCheckEvery is the amortization interval for the
// non-deterministic checks (context, wall clock, memory): at typical
// engine speeds ~40 µs of wall time between checks.
const DefaultCheckEvery = 4096

// memEveryChecks spaces the runtime.ReadMemStats samples (it is far more
// expensive than a time.Now call): once every this many amortized
// checks, i.e. every CheckEvery * memEveryChecks events.
const memEveryChecks = 64

// Limits bounds one run. The zero value imposes nothing.
type Limits struct {
	// MaxEvents ends the run after exactly this many executed events
	// (deterministic). 0 = unlimited.
	MaxEvents uint64

	// MaxCycles ends the run after the first event past this simulated
	// cycle (deterministic). 0 = unlimited. Distinct from the machine's
	// runaway cycle guard: exhausting this budget is a structured
	// ErrBudgetExhausted end with partial results, not a failure.
	MaxCycles uint64

	// WallBudget ends the run after this much host wall-clock time
	// (non-deterministic, checked every CheckEvery events). 0 = none.
	WallBudget time.Duration

	// MemSoftBytes ends the run when the Go heap (runtime.ReadMemStats
	// HeapAlloc) exceeds this many bytes (non-deterministic, sampled
	// sparsely). 0 = none.
	MemSoftBytes uint64

	// CheckEvery overrides the amortization interval for the
	// non-deterministic checks. 0 = DefaultCheckEvery.
	CheckEvery uint64

	// CheckpointEvery asks for a checkpoint after every multiple of this
	// many executed events (deterministic: the schedule is a pure function
	// of the event count, so a checkpointed run's stop and snapshot points
	// replay identically). 0 = no periodic checkpoints.
	CheckpointEvery uint64

	// CheckpointAt asks for one checkpoint at each listed event count
	// (deterministic; sorted and deduplicated by New). The resume layer
	// uses it to re-capture state at a snapshot's exact event count.
	CheckpointAt []uint64
}

// Clamp tightens lim so no budget exceeds the corresponding ceiling: for
// each budget field, a non-zero ceiling replaces an unset (zero) or
// looser limit. Supervising layers — the job service admitting
// client-requested budgets — use it to impose server-wide caps without
// inspecting individual fields. Checkpoint scheduling fields are not
// budgets and pass through untouched.
func Clamp(lim, ceiling Limits) Limits {
	if ceiling.MaxEvents != 0 && (lim.MaxEvents == 0 || lim.MaxEvents > ceiling.MaxEvents) {
		lim.MaxEvents = ceiling.MaxEvents
	}
	if ceiling.MaxCycles != 0 && (lim.MaxCycles == 0 || lim.MaxCycles > ceiling.MaxCycles) {
		lim.MaxCycles = ceiling.MaxCycles
	}
	if ceiling.WallBudget != 0 && (lim.WallBudget == 0 || lim.WallBudget > ceiling.WallBudget) {
		lim.WallBudget = ceiling.WallBudget
	}
	if ceiling.MemSoftBytes != 0 && (lim.MemSoftBytes == 0 || lim.MemSoftBytes > ceiling.MemSoftBytes) {
		lim.MemSoftBytes = ceiling.MemSoftBytes
	}
	return lim
}

// active reports whether any budget is set.
func (l Limits) active() bool {
	return l.MaxEvents != 0 || l.MaxCycles != 0 || l.WallBudget != 0 || l.MemSoftBytes != 0 ||
		l.CheckpointEvery != 0 || len(l.CheckpointAt) != 0
}

// Stop is a controller's verdict that the run must end.
type Stop struct {
	// Sentinel is simerr.ErrCanceled or simerr.ErrBudgetExhausted.
	Sentinel error
	// Reason is the human-readable trigger, e.g. "event budget (50000
	// events) exhausted". A stop point that depends on host timing
	// (cancellation, wall clock, memory) says "[non-reproducible stop
	// point]"; event and cycle budgets stop at a pure function of the
	// event sequence.
	Reason string
}

// Controller enforces a context and Limits over one run. It is owned by
// a single goroutine (the event loop); none of its state is shared.
type Controller struct {
	ctx      context.Context
	lim      Limits
	deadline time.Time // zero when WallBudget is unset

	every     uint64 // amortization interval
	countdown uint64 // events until the next amortized check
	memIn     int    // amortized checks until the next ReadMemStats

	ckptEvery uint64   // periodic checkpoint interval (0 = none)
	nextEvery uint64   // next periodic checkpoint event count
	ckptAt    []uint64 // one-shot checkpoint event counts, ascending
}

// New builds a controller, or returns nil when there is nothing to
// enforce (context can never be canceled and no limit is set) so the
// event loop can skip the per-event call entirely.
func New(ctx context.Context, lim Limits) *Controller {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() == nil && !lim.active() {
		return nil
	}
	every := lim.CheckEvery
	if every == 0 {
		every = DefaultCheckEvery
	}
	c := &Controller{
		ctx:       ctx,
		lim:       lim,
		every:     every,
		countdown: every,
		memIn:     memEveryChecks,
	}
	if lim.WallBudget > 0 {
		c.deadline = time.Now().Add(lim.WallBudget)
	}
	if lim.CheckpointEvery > 0 {
		c.ckptEvery = lim.CheckpointEvery
		c.nextEvery = lim.CheckpointEvery
	}
	if len(lim.CheckpointAt) > 0 {
		at := append([]uint64(nil), lim.CheckpointAt...)
		sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
		for _, n := range at {
			if n != 0 && (len(c.ckptAt) == 0 || c.ckptAt[len(c.ckptAt)-1] != n) {
				c.ckptAt = append(c.ckptAt, n)
			}
		}
	}
	return c
}

// CheckpointDue reports whether a deterministic checkpoint is scheduled
// at exactly this executed-event count, consuming the schedule entry. The
// machine calls it between events (after Check has allowed the run to
// continue), with fired increasing by one per call, so periodic
// checkpoints land at exact multiples of CheckpointEvery and one-shot
// points fire exactly once.
func (c *Controller) CheckpointDue(fired uint64) bool {
	due := false
	if c.ckptEvery != 0 && fired >= c.nextEvery {
		for c.nextEvery <= fired {
			c.nextEvery += c.ckptEvery
		}
		due = true
	}
	for len(c.ckptAt) > 0 && fired >= c.ckptAt[0] {
		c.ckptAt = c.ckptAt[1:]
		due = true
	}
	return due
}

// Check is called after every executed event with the cumulative event
// count and current simulated cycle. It returns nil while the run may
// continue, or the Stop that ends it. Deterministic budgets are
// evaluated on every call; the rest only when the amortization counter
// expires.
func (c *Controller) Check(fired, cycle uint64) *Stop {
	if c.lim.MaxEvents != 0 && fired >= c.lim.MaxEvents {
		return &Stop{
			Sentinel: simerr.ErrBudgetExhausted,
			Reason:   fmt.Sprintf("event budget (%d events) exhausted", c.lim.MaxEvents),
		}
	}
	if c.lim.MaxCycles != 0 && cycle > c.lim.MaxCycles {
		return &Stop{
			Sentinel: simerr.ErrBudgetExhausted,
			Reason:   fmt.Sprintf("sim-cycle budget (%d cycles) exhausted at cycle %d", c.lim.MaxCycles, cycle),
		}
	}
	if c.countdown--; c.countdown > 0 {
		return nil
	}
	c.countdown = c.every
	return c.checkSlow()
}

// checkSlow runs the amortized, non-deterministic checks.
func (c *Controller) checkSlow() *Stop {
	if err := c.ctx.Err(); err != nil {
		return &Stop{
			Sentinel: simerr.ErrCanceled,
			Reason:   fmt.Sprintf("context canceled (%v) [non-reproducible stop point]", err),
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return &Stop{
			Sentinel: simerr.ErrBudgetExhausted,
			Reason:   fmt.Sprintf("wall-clock budget (%v) exhausted [non-reproducible stop point]", c.lim.WallBudget),
		}
	}
	if c.lim.MemSoftBytes != 0 {
		if c.memIn--; c.memIn <= 0 {
			c.memIn = memEveryChecks
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > c.lim.MemSoftBytes {
				return &Stop{
					Sentinel: simerr.ErrBudgetExhausted,
					Reason: fmt.Sprintf("memory soft limit (%d MB) exceeded: heap %d MB [non-reproducible stop point]",
						c.lim.MemSoftBytes>>20, ms.HeapAlloc>>20),
				}
			}
		}
	}
	return nil
}
