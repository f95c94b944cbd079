package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/cluster"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
	"cohesion/internal/snapshot"
)

// startMixers loads a machine with cores sharing lines (some contention,
// some private traffic), finishing after a bounded number of operations.
func startMixers(m *Machine, cores, rounds int) {
	for core := 0; core < cores; core++ {
		core := core
		shared := addr.Addr(addr.HeapBase)
		private := addr.HeapBase + addr.Addr((core+1)*64*addr.LineBytes)
		m.StartProgram(core, func(c *cluster.Core) {
			c.SetCode(addr.CodeBase, 256)
			for i := 0; i < rounds; i++ {
				st(c, private+addr.Addr(4*(i%16)), uint32(core<<16|i))
				ld(c, shared)
				if i%3 == core%3 {
					st(c, shared+addr.Addr(4*(core%8)), uint32(i))
				}
			}
		})
	}
}

// TestDigestsDeterministicAtEventCount runs the same workload twice to
// the same event budget and asserts the full per-layer digest vector
// matches — the foundation of the verified-replay resume contract.
func TestDigestsDeterministicAtEventCount(t *testing.T) {
	capture := func() snapshot.Digests {
		m := newMachine(t, hwccCfg(2))
		startMixers(m, 8, 200)
		err := m.SimulateCtx(context.Background(), 10_000_000, runctl.Limits{MaxEvents: 6_000})
		if !errors.Is(err, simerr.ErrBudgetExhausted) {
			t.Fatalf("SimulateCtx = %v, want ErrBudgetExhausted", err)
		}
		return m.Digests()
	}
	d1, d2 := capture(), capture()
	if diff := d1.Diff(d2); diff != nil {
		t.Fatalf("digest vectors diverged across identical replays: %v", diff)
	}
	if d1.Events != 6_000 {
		t.Fatalf("digests recorded %d events, want the 6000-event budget", d1.Events)
	}
	if d1.Mem == 0 || d1.L2 == 0 {
		t.Fatal("digest layers look uncomputed")
	}
}

// TestCaptureStateDeterministic compares full serialized machine states
// across identical replays, and checks that a dump's digest vector,
// hashed from its own lists, equals the one a checkpoint would record.
func TestCaptureStateDeterministic(t *testing.T) {
	capture := func() *snapshot.MachineState {
		m := newMachine(t, cohesionCfg(2))
		startMixers(m, 8, 400)
		err := m.SimulateCtx(context.Background(), 10_000_000, runctl.Limits{MaxEvents: 5_000})
		if !errors.Is(err, simerr.ErrBudgetExhausted) {
			t.Fatalf("SimulateCtx = %v, want ErrBudgetExhausted", err)
		}
		st := m.CaptureState()
		if d := m.Digests(); st.Digests != d {
			t.Fatalf("dump digests %+v, checkpoint digests %+v", st.Digests, d)
		}
		return st
	}
	s1, s2 := capture(), capture()
	if diff := s1.Digests.Diff(s2.Digests); diff != nil {
		t.Fatalf("digest vectors diverged across identical replays: %v", diff)
	}
	if s1.Digests.Events != 5_000 || s1.Stats.Events != 5_000 {
		t.Fatalf("dump records event %d, counters say %d; want the 5000-event budget", s1.Digests.Events, s1.Stats.Events)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("machine states diverged across identical replays")
	}
}

// TestCheckpointCallbackFiresAtExactCounts asserts the deterministic
// schedule: CheckpointEvery multiples plus CheckpointAt one-shots, each
// exactly once, in order.
func TestCheckpointCallbackFiresAtExactCounts(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	startMixers(m, 8, 200)
	var fired []uint64
	m.SetCheckpointFunc(func(events, cycle uint64) error {
		fired = append(fired, events)
		return nil
	})
	err := m.SimulateCtx(context.Background(), 10_000_000,
		runctl.Limits{MaxEvents: 5_000, CheckpointEvery: 1_000, CheckpointAt: []uint64{2_500, 777, 777}})
	if !errors.Is(err, simerr.ErrBudgetExhausted) {
		t.Fatalf("SimulateCtx = %v, want ErrBudgetExhausted", err)
	}
	// Periodic at 1000..4000, one-shots at 777 and 2500, and the
	// checkpoint-on-stop at the 5000-event budget. The 5000 periodic
	// point coincides with the stop: Check returns the stop before the
	// loop reaches CheckpointDue, so only the stop checkpoint fires.
	want := []uint64{777, 1_000, 2_000, 2_500, 3_000, 4_000, 5_000}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("checkpoints fired at %v, want %v", fired, want)
	}
}

// TestCheckpointObservabilityNeutral runs the same workload with and
// without a digest-capturing checkpoint callback and asserts the final
// memory fingerprint and event count are bit-identical — checkpointing
// must be a pure observer.
func TestCheckpointObservabilityNeutral(t *testing.T) {
	run := func(every uint64) (uint64, uint64) {
		m := newMachine(t, cohesionCfg(2))
		startMixers(m, 8, 120)
		if every > 0 {
			m.SetCheckpointFunc(func(events, cycle uint64) error {
				_ = m.CaptureState() // exercise the full capture path mid-run
				return nil
			})
		}
		lim := runctl.Limits{CheckpointEvery: every}
		if err := m.SimulateCtx(context.Background(), 50_000_000, lim); err != nil {
			t.Fatalf("SimulateCtx = %v, want clean run", err)
		}
		m.DrainToMemory()
		return m.Store.Fingerprint(), m.Q.Fired()
	}
	bareFP, bareEvents := run(0)
	ckptFP, ckptEvents := run(2_000)
	if bareFP != ckptFP || bareEvents != ckptEvents {
		t.Fatalf("checkpointing perturbed the run: bare (%#x, %d events) vs checkpointed (%#x, %d events)",
			bareFP, bareEvents, ckptFP, ckptEvents)
	}
}

// TestCheckpointErrorAbortsRun asserts a failing checkpoint write ends
// the run with the callback's error and still joins every goroutine.
func TestCheckpointErrorAbortsRun(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	startSpinners(m, 8)
	boom := fmt.Errorf("disk full")
	m.SetCheckpointFunc(func(events, cycle uint64) error { return boom })
	err := m.SimulateCtx(context.Background(), 10_000_000, runctl.Limits{CheckpointEvery: 1_000})
	if !errors.Is(err, boom) {
		t.Fatalf("SimulateCtx = %v, want the checkpoint error", err)
	}
}

// TestCheckpointOnStopKeepsSentinel asserts that when the stop-time
// checkpoint write fails, the returned error still matches the stop
// sentinel (callers rely on errors.Is for partial-result handling).
func TestCheckpointOnStopKeepsSentinel(t *testing.T) {
	m := newMachine(t, hwccCfg(2))
	startSpinners(m, 8)
	boom := fmt.Errorf("disk full")
	m.SetCheckpointFunc(func(events, cycle uint64) error { return boom })
	err := m.SimulateCtx(context.Background(), 10_000_000, runctl.Limits{MaxEvents: 3_000})
	if !errors.Is(err, simerr.ErrBudgetExhausted) {
		t.Fatalf("SimulateCtx = %v, want ErrBudgetExhausted preserved", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("SimulateCtx = %v, want the checkpoint write error joined", err)
	}
}
