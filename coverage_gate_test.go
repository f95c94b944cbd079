package cohesion

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"cohesion/internal/stress"
	"cohesion/internal/trace"
)

// TestProtocolEdgeCoverageGate is the coverage gate: the kernel suite run
// under all three memory models, plus a fixed-seed stress batch aimed at
// the pressure-only paths (tiny directories, pointer overflow, MSHR
// starvation, fault recovery), must together exercise every registered
// protocol-transition edge. A gap means either dead protocol code or a
// test hole; the failure message lists exactly which edges never fired.
//
// Every run also carries its own trace sink, since coverage and the trace
// are two consumers of one step call: across the runs, the step records
// must name exactly the covered edges, and every other record must be a
// transaction span endpoint.
func TestProtocolEdgeCoverageGate(t *testing.T) {
	cov := NewCoverage()
	var mu sync.Mutex
	traced := map[string]bool{} // edge names the step records carry
	collect := func(t *testing.T, sink *trace.Sink) {
		if sink.Dropped() > 0 {
			t.Fatalf("trace ring dropped %d of %d records", sink.Dropped(), sink.Total())
		}
		mu.Lock()
		defer mu.Unlock()
		for _, r := range sink.Records() {
			switch r.Phase {
			case 0:
				traced[r.Event] = true
			case 'b', 'e':
			default:
				t.Errorf("record %+v is neither a step nor a span endpoint", r)
			}
		}
	}

	t.Run("kernels", func(t *testing.T) {
		for _, kernel := range KernelNames() {
			for _, mode := range []Mode{SWcc, HWcc, Cohesion} {
				kernel, mode := kernel, mode
				t.Run(fmt.Sprintf("%s/%v", kernel, mode), func(t *testing.T) {
					t.Parallel()
					sink := NewTraceSink(0)
					_, err := Run(RunConfig{
						Machine:   ScaledConfig(2).WithMode(mode),
						Kernel:    kernel,
						Scale:     1,
						Seed:      42,
						Verify:    true,
						Coverage:  cov,
						TraceSink: sink,
					})
					if err != nil {
						t.Fatal(err)
					}
					collect(t, sink)
				})
			}
		}
	})

	// The stress batch reaches edges the well-behaved kernels cannot:
	// capacity-starved directories, Dir4B pointer overflow, MSHR stalls,
	// and the fault-recovery paths.
	batch := []stress.Config{
		{Seed: 101, Mode: "cohesion"},
		{Seed: 102, Mode: "hwcc"},
		// 64 SWcc lines against a 32-line L2: incoherent evictions, both
		// dirty writebacks and silent clean drops.
		{Seed: 103, Mode: "swcc", Lines: 64, OpsPerCore: 200},
		// A long fault-injected run: enough allocations for the ~0.5%
		// injected-NACK rate to fire, plus drop/dup recovery paths.
		{Seed: 104, Mode: "cohesion", Faults: true, FaultSeed: 9, OpsPerCore: 400},
		// Dir4B with >4 sharing clusters: pointer overflow, then broadcast
		// probe fan-out (which also invalidates never-sharing clusters).
		{Seed: 105, Mode: "hwcc", Clusters: 6, WorkersPerCluster: 2, Lines: 4, OpsPerCore: 300, Dir: "dir4b"},
		// A 4-entry directory under 8 hot lines: constant capacity evictions
		// and, with every way pinned, allocation retries.
		{Seed: 106, Mode: "hwcc", Lines: 8, Dir: "sparse", DirEntries: 4, DirAssoc: 2},
		// Same starvation with NACK-on-capacity: the requester is bounced.
		{Seed: 107, Mode: "hwcc", Lines: 8, Dir: "sparse", DirEntries: 4, DirAssoc: 2, NackOnCapacity: true},
		// Two MSHRs under four workers per cluster: misses must stall.
		{Seed: 108, Mode: "cohesion", MSHRs: 2},
		// Two heavily contended lines with frequent domain flips: a request
		// races ahead of the SW=>HW transition, which must tear its freshly
		// allocated entry down first.
		{Seed: 112, Mode: "cohesion", Clusters: 4, Lines: 2, OpsPerCore: 300},
	}
	t.Run("stress", func(t *testing.T) {
		for i, cfg := range batch {
			i, cfg := i, cfg
			t.Run(fmt.Sprintf("%d-%s", i, cfg.Mode), func(t *testing.T) {
				t.Parallel()
				p, err := stress.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sink := trace.NewSink(0)
				res := stress.RunProgramOpts(p, stress.RunOpts{Coverage: cov, Sink: sink})
				if res.Err != nil {
					t.Fatalf("stress run failed: %v", res.Err)
				}
				collect(t, sink)
			})
		}
	})

	if un := cov.Uncovered(); len(un) > 0 {
		t.Fatalf("%d/%d protocol edges never fired:\n  %s",
			len(un), cov.Total(), strings.Join(un, "\n  "))
	}
	covered := cov.CountsByName()
	var diff []string
	for name := range covered {
		if !traced[name] {
			diff = append(diff, name+" covered, never traced")
		}
	}
	for name := range traced {
		if covered[name] == 0 {
			diff = append(diff, name+" traced, never covered")
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		t.Fatalf("trace records and coverage disagree:\n  %s", strings.Join(diff, "\n  "))
	}
}
