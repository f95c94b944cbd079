package cohesion

import (
	"context"
	"testing"
)

// TestRunAllocsPerEventGate locks in the zero-allocation hot path for the
// complete Run pipeline, not just the event engine: cores, caches, the
// coherence protocol, the interconnect, and the stats layer together.
// Each measured pass simulates a freshly prepared machine, so the only
// tolerated allocations are the warm-up fills of the per-machine free
// lists (message records, transactions, service slots, recall records)
// and the first touch of each architectural store line — fixed counts
// amortized over tens of thousands of events. The gate is 0.05 allocs
// per event against a measured ~0.02, so a per-event allocation sneaking
// back into any subsystem (one alloc/event = 20x the gate, and even an
// alloc on a 10%-frequency path doubles the figure) fails loudly here
// rather than as a slow bench drift.
func TestRunAllocsPerEventGate(t *testing.T) {
	for _, mode := range []Mode{SWcc, HWcc, Cohesion} {
		t.Run(mode.String(), func(t *testing.T) {
			rc := RunConfig{
				Machine: ScaledConfig(2).WithMode(mode),
				Kernel:  "cg",
				Scale:   2,
				Seed:    42,
			}
			// AllocsPerRun invokes the function rounds+1 times (one
			// warm-up call) and a prepared run is single-use, so stage
			// one machine per invocation up front; construction is
			// outside the measured closure.
			const rounds = 5
			preps := make([]*Prepared, rounds+1)
			for i := range preps {
				p, err := Prepare(rc)
				if err != nil {
					t.Fatalf("Prepare: %v", err)
				}
				preps[i] = p
			}
			next := 0
			var events uint64
			allocs := testing.AllocsPerRun(rounds, func() {
				p := preps[next]
				next++
				if _, err := p.Run(context.Background()); err != nil {
					panic(err)
				}
				events = p.m.Run.Events
			})
			perEvent := allocs / float64(events)
			t.Logf("%v: %.0f allocs over %d events = %.4f allocs/event", mode, allocs, events, perEvent)
			const gate = 0.05
			if perEvent > gate {
				t.Errorf("%v: %.4f allocs/event, gate is %.2f — a hot-path allocation crept back in", mode, perEvent, gate)
			}
		})
	}
}

// TestPooledRecyclingDeterminism stresses the protocol free lists on
// their hardest recycling paths — fault injection drops and duplicates
// retryable requests, so network records and transactions are retired
// and reissued out of the usual lockstep — and demands bit-identical
// outcomes: three straight runs must agree on fingerprint, event count,
// and cycle count, and a run interrupted at three interior depths must
// resume from its snapshot to the same fingerprint (selfCheckResume
// verifies the replayed per-layer digests at the resume point). A pooled
// record leaking state between lives would diverge one of these legs.
// The kernel suite runs this under -race in CI, covering the pools'
// aliasing discipline as well.
func TestPooledRecyclingDeterminism(t *testing.T) {
	for _, mode := range []Mode{HWcc, Cohesion} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			cfg := ScaledConfig(2).WithMode(mode)
			cfg.Faults = DefaultFaultPlan(99)
			rc := RunConfig{Machine: cfg, Kernel: "cg", Scale: 1, Seed: 7, Verify: true}

			ref, err := RunCtx(context.Background(), rc)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if ref.Stats.FaultDrops+ref.Stats.FaultDups == 0 {
				t.Fatalf("fault plan injected no drops or duplicates; the recycling stress is vacuous")
			}
			for i := 0; i < 2; i++ {
				res, err := RunCtx(context.Background(), rc)
				if err != nil {
					t.Fatalf("repeat run %d: %v", i, err)
				}
				if res.MemFingerprint != ref.MemFingerprint ||
					res.Stats.Events != ref.Stats.Events ||
					res.Cycles() != ref.Cycles() {
					t.Fatalf("repeat run %d diverged: fingerprint %#x/%#x events %d/%d cycles %d/%d",
						i, res.MemFingerprint, ref.MemFingerprint,
						res.Stats.Events, ref.Stats.Events, res.Cycles(), ref.Cycles())
				}
			}

			report, err := selfCheckResume(context.Background(), rc, 3, t.TempDir())
			if err != nil {
				t.Fatalf("selfCheckResume under faults: %v", err)
			}
			if report.resumed != len(report.depths) || len(report.depths) < 3 {
				t.Fatalf("resumed %d of depths %v, want 3 clean resumes", report.resumed, report.depths)
			}
		})
	}
}
