package machine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/directory"
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
// matches — the foundation of the verified-replay resume contract. The
// Cohesion case adds the region table to the walk.
func TestDigestsDeterministicAtEventCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.Machine
	}{{"HWcc", hwccCfg(2)}, {"Cohesion", cohesionCfg(2)}} {
		t.Run(tc.name, func(t *testing.T) {
			capture := func() snapshot.Digests {
				m := newMachine(t, tc.cfg)
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
			if d1.Mem == 0 || d1.L2 == 0 || d1.Dir == 0 {
				t.Fatal("digest layers look uncomputed")
			}
		})
	}
}

// stoppedMixers runs the mixer workload on a Cohesion machine to a
// between-events boundary, where its L2s hold valid lines and its
// directories hold entries with sharers.
func stoppedMixers(t *testing.T) *Machine {
	t.Helper()
	m := newMachine(t, cohesionCfg(2))
	startMixers(m, 8, 200)
	err := m.SimulateCtx(context.Background(), 10_000_000, runctl.Limits{MaxEvents: 4_000})
	if !errors.Is(err, simerr.ErrBudgetExhausted) {
		t.Fatalf("SimulateCtx = %v, want ErrBudgetExhausted", err)
	}
	return m
}

// l2Entries returns cluster 0's valid L2 entries, in slot order.
func l2Entries(t *testing.T, m *Machine) []*cache.Entry {
	t.Helper()
	var out []*cache.Entry
	m.Clusters[0].L2().ForEach(func(e *cache.Entry) { out = append(out, e) })
	if len(out) < 2 {
		t.Fatalf("cluster 0 holds %d valid L2 lines, want at least 2", len(out))
	}
	return out
}

// dirEntry returns the allocated directory entry with the lowest line
// that has a sharer, so the choice does not depend on map order.
func dirEntry(t *testing.T, m *Machine) *directory.Entry {
	t.Helper()
	var pick *directory.Entry
	for _, h := range m.Homes {
		h.Directory().ForEach(func(e *directory.Entry) {
			if !e.Sharers.Empty() && (pick == nil || e.Line < pick.Line) {
				pick = e
			}
		})
	}
	if pick == nil {
		t.Fatal("no directory entry has a sharer")
	}
	return pick
}

// TestDigestWalkNamesTheMutatedLayer changes one hashed field of a
// stopped machine at a time and checks that exactly the layer holding
// that field moves.
func TestDigestWalkNamesTheMutatedLayer(t *testing.T) {
	for _, tc := range []struct {
		name, layer string
		mutate      func(t *testing.T, m *Machine)
	}{
		{"l2 state", "l2", func(t *testing.T, m *Machine) { l2Entries(t, m)[0].State ^= 1 }},
		{"l2 valid mask", "l2", func(t *testing.T, m *Machine) { l2Entries(t, m)[0].ValidMask ^= 1 << 3 }},
		{"l2 data word", "l2", func(t *testing.T, m *Machine) { l2Entries(t, m)[0].Data[5] ^= 1 }},
		{"l2 incoherent", "l2", func(t *testing.T, m *Machine) {
			e := l2Entries(t, m)[0]
			e.Incoherent = !e.Incoherent
		}},
		{"dir owner", "dir", func(t *testing.T, m *Machine) { dirEntry(t, m).Owner++ }},
		{"dir sharer bit", "dir", func(t *testing.T, m *Machine) { dirEntry(t, m).Sharers[0] ^= 1 << 1 }},
		{"dir broadcast", "dir", func(t *testing.T, m *Machine) {
			e := dirEntry(t, m)
			e.Broadcast = !e.Broadcast
		}},
		{"coarse range", "region", func(t *testing.T, m *Machine) {
			if err := m.AddCoarseRegion(addr.Range{Base: addr.HeapBase + 1<<24, Size: 1 << 12}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := stoppedMixers(t)
			before := m.Digests()
			tc.mutate(t, m)
			diff := before.Diff(m.Digests())
			if len(diff) != 1 || !strings.HasPrefix(diff[0], tc.layer+" ") {
				t.Fatalf("layers moved: %v, want %s alone", diff, tc.layer)
			}
		})
	}
}

// TestDigestWalkSumsFinishedEntryHashes checks the two properties of an
// order-free sum of entry hashes: moving entries between slots changes
// nothing, and the same change in two entries cannot cancel.
func TestDigestWalkSumsFinishedEntryHashes(t *testing.T) {
	m := stoppedMixers(t)
	before := m.Digests()
	es := l2Entries(t, m)
	// Bit 31 of the last data word is bit 63 of the last mixed word.
	es[0].Data[7] ^= 1 << 31
	es[1].Data[7] ^= 1 << 31
	if m.Digests().L2 == before.L2 {
		t.Fatal("flipping bit 63 of the last mixed word in two L2 entries left the L2 digest unchanged")
	}
	es[0].Data[7] ^= 1 << 31
	es[1].Data[7] ^= 1 << 31

	*es[0], *es[1] = *es[1], *es[0]
	if got := m.Digests().L2; got != before.L2 {
		t.Fatalf("swapping two L2 entries' slots moved the L2 digest: %#x vs %#x", got, before.L2)
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
				_ = m.Digests() // exercise the full digest walk mid-run
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
