package cohesion

import (
	"fmt"
	"testing"
)

// The benchmark harness regenerates each of the paper's tables and figures
// once per iteration at a reduced scale, reporting the headline metric of
// each experiment alongside wall-clock cost. Run the cohesion-experiments
// command for full-resolution tables.

func benchParams(kernels ...string) ExpParams {
	return ExpParams{Clusters: 4, Workers: 8, Scale: 2, Kernels: kernels, Seed: 42}
}

// BenchmarkFig2MessageTraffic regenerates Figure 2 (SWcc vs optimistic
// HWcc message counts) and reports the mean HWcc/SWcc message ratio.
func BenchmarkFig2MessageTraffic(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("heat", "kmeans", "stencil")
	for i := 0; i < b.N; i++ {
		rows, err := Fig2(p)
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		var n int
		for _, r := range rows {
			if r.Config == "HWcc" {
				ratio += r.Relative
				n++
			}
		}
		b.ReportMetric(ratio/float64(n), "hwcc/swcc-msgs")
	}
}

// BenchmarkFig3FlushEfficiency regenerates Figure 3 (useful SWcc
// coherence instructions vs L2 size) and reports the largest-L2 useful
// invalidation fraction.
func BenchmarkFig3FlushEfficiency(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("heat")
	for i := 0; i < b.N; i++ {
		rows, err := Fig3(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].UsefulInv, "useful-inv@32K")
	}
}

// BenchmarkFig8MessageTraffic regenerates Figure 8 (four design points)
// and reports the mean Cohesion-relative message count.
func BenchmarkFig8MessageTraffic(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("heat", "kmeans")
	for i := 0; i < b.N; i++ {
		rows, err := Fig8(p)
		if err != nil {
			b.Fatal(err)
		}
		var coh float64
		var n int
		for _, r := range rows {
			if r.Config == "Cohesion" {
				coh += r.Relative
				n++
			}
		}
		b.ReportMetric(coh/float64(n), "cohesion/swcc-msgs")
	}
}

// BenchmarkFig9aDirectorySweepHWcc regenerates Figure 9a and reports the
// worst slowdown at the smallest directory.
func BenchmarkFig9aDirectorySweepHWcc(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("sobel")
	p.Scale = 3
	p.DirSizes = []int{16, 128, 512}
	for i := 0; i < b.N; i++ {
		pts, err := Fig9Sweep(p, HWcc)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, pt := range pts {
			if pt.Slowdown > worst {
				worst = pt.Slowdown
			}
		}
		b.ReportMetric(worst, "worst-slowdown")
	}
}

// BenchmarkFig9bDirectorySweepCohesion regenerates Figure 9b and reports
// Cohesion's worst slowdown (should stay ~1.0).
func BenchmarkFig9bDirectorySweepCohesion(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("sobel")
	p.Scale = 3
	p.DirSizes = []int{16, 128, 512}
	for i := 0; i < b.N; i++ {
		pts, err := Fig9Sweep(p, Cohesion)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, pt := range pts {
			if pt.Slowdown > worst {
				worst = pt.Slowdown
			}
		}
		b.ReportMetric(worst, "worst-slowdown")
	}
}

// BenchmarkFig9cOccupancy regenerates Figure 9c and reports the aggregate
// HWcc/Cohesion mean-occupancy ratio (paper: ~2.1x).
func BenchmarkFig9cOccupancy(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("cg", "kmeans", "heat")
	for i := 0; i < b.N; i++ {
		rows, err := Fig9c(p)
		if err != nil {
			b.Fatal(err)
		}
		var hw, coh float64
		for _, r := range rows {
			if r.Config == "HWcc" {
				hw += r.MeanTotal
			} else {
				coh += r.MeanTotal
			}
		}
		b.ReportMetric(hw/coh, "dir-reduction")
	}
}

// BenchmarkFig10Runtime regenerates Figure 10 and reports the mean
// HWcc-real runtime normalized to Cohesion.
func BenchmarkFig10Runtime(b *testing.B) {
	b.ReportAllocs()
	p := benchParams("heat", "sobel")
	for i := 0; i < b.N; i++ {
		rows, err := Fig10(p)
		if err != nil {
			b.Fatal(err)
		}
		var hw float64
		var n int
		for _, r := range rows {
			if r.Config == "HWccReal" {
				hw += r.Normalized
				n++
			}
		}
		b.ReportMetric(hw/float64(n), "hwccreal/cohesion-time")
	}
}

// BenchmarkTableArea regenerates the §4.4 storage estimates.
func BenchmarkTableArea(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := AreaEstimates()
		b.ReportMetric(rows[0].PercentOfL2, "fullmap-%L2")
	}
}

// BenchmarkKernel measures one simulation per iteration for every kernel
// and memory model (simulated cycles reported as the metric).
func BenchmarkKernel(b *testing.B) {
	b.ReportAllocs()
	for _, kernel := range KernelNames() {
		for _, mode := range []Mode{SWcc, HWcc, Cohesion} {
			kernel, mode := kernel, mode
			b.Run(fmt.Sprintf("%s/%v", kernel, mode), func(b *testing.B) {
				b.ReportAllocs()
				cfg := ScaledConfig(2).WithMode(mode)
				var cycles uint64
				for i := 0; i < b.N; i++ {
					res, err := Run(RunConfig{Machine: cfg, Kernel: kernel, Scale: 1, Seed: 42})
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles()
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// simRound is one round of the bench sim workload (bench/workloads.go):
// these kernels and scales under each memory model on ScaledConfig(8).
var simRound = []struct {
	kernel string
	scale  int
}{{"cg", 12}, {"heat", 10}, {"stencil", 5}, {"dmm", 5}}

// BenchmarkPrepare sets up one round of the bench sim workload — Prepare
// of its 12 cells, seed 42, each machine's coroutines ended before it
// runs — and reports its bytes and allocations per round: the way to size
// a set-up or footprint change without the bench/ harness.
//
//	go test -run XXX -bench Prepare -count 5 .
func BenchmarkPrepare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range simRound {
			for _, mode := range []Mode{SWcc, HWcc, Cohesion} {
				pr, err := Prepare(RunConfig{Machine: ScaledConfig(8).WithMode(mode),
					Kernel: c.kernel, Scale: c.scale, Seed: 42, Verify: true})
				if err != nil {
					b.Fatal(err)
				}
				pr.m.Shutdown()
			}
		}
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationReadRelease compares HWcc with and without read
// releases: without them the directory silts up with stale sharers and
// invalidation probes go to clusters that no longer hold the line.
func BenchmarkAblationReadRelease(b *testing.B) {
	b.ReportAllocs()
	for _, on := range []bool{true, false} {
		on := on
		b.Run(fmt.Sprintf("releases=%v", on), func(b *testing.B) {
			b.ReportAllocs()
			cfg := ScaledConfig(4).WithMode(HWcc)
			cfg.L2Size = 8 << 10
			cfg.L3Size = cfg.L3Banks * (32 << 10)
			cfg.ReadReleases = on
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{Machine: cfg, Kernel: "sobel", Scale: 3, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.TotalMessages()), "messages")
				b.ReportMetric(float64(res.Stats.ProbesSent), "probes")
			}
		})
	}
}

// BenchmarkAblationCoarseTable compares Cohesion with and without the
// coarse-grain region table: without it, code/stack/immutable lines fall
// through to the fine-grain table and the directory.
func BenchmarkAblationCoarseTable(b *testing.B) {
	b.ReportAllocs()
	for _, on := range []bool{true, false} {
		on := on
		b.Run(fmt.Sprintf("coarse=%v", on), func(b *testing.B) {
			b.ReportAllocs()
			cfg := ScaledConfig(4).WithMode(Cohesion).WithDirectory(DirInfinite, 0, 0)
			cfg.CoarseTable = on
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{Machine: cfg, Kernel: "heat", Scale: 2, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Stats.Occupancy.MeanTotal(), "dir-entries")
			}
		})
	}
}

// BenchmarkAblationTableCaching compares fine-grain region-table lookups
// served from the L3 versus always going to DRAM (paper §3.4 considers
// the table "amenable to on-die caching").
func BenchmarkAblationTableCaching(b *testing.B) {
	b.ReportAllocs()
	for _, on := range []bool{true, false} {
		on := on
		b.Run(fmt.Sprintf("cached=%v", on), func(b *testing.B) {
			b.ReportAllocs()
			cfg := ScaledConfig(4).WithMode(Cohesion).WithDirectory(DirInfinite, 0, 0)
			cfg.TableCachedInL3 = on
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{Machine: cfg, Kernel: "stencil", Scale: 2, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles()), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationMSHR varies the cluster's outstanding-miss budget: a
// single MSHR serializes all eight cores' misses.
func BenchmarkAblationMSHR(b *testing.B) {
	b.ReportAllocs()
	for _, mshrs := range []int{1, 2, 4, 16} {
		mshrs := mshrs
		b.Run(fmt.Sprintf("mshrs=%d", mshrs), func(b *testing.B) {
			b.ReportAllocs()
			cfg := ScaledConfig(4).WithMode(Cohesion)
			cfg.L2MSHRs = mshrs
			for i := 0; i < b.N; i++ {
				res, err := Run(RunConfig{Machine: cfg, Kernel: "stencil", Scale: 2, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles()), "sim-cycles")
			}
		})
	}
}

// BenchmarkAblationTaskQueue compares the central atomic task queue with
// the distributed per-worker-counter variant on a fine-grained task
// workload (the paper's gjk is bound by task scheduling overhead, §4.5).
// Measured result: at simulated scales the central fetch-and-add queue is
// NOT the bottleneck — its dequeues pipeline through the bank port — and
// the distributed variant's O(workers^2) termination scan costs more than
// the contention it removes. The knob exists to measure that tradeoff.
func BenchmarkAblationTaskQueue(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, distributed bool) {
		b.ReportAllocs()
		const workers = 16
		for i := 0; i < b.N; i++ {
			sys, err := NewSystem(ScaledConfig(8).WithMode(Cohesion), workers)
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				sys.Spawn(w*4, 1024, func(x *Ctx) {
					body := func(task int) { x.Work(20) } // tiny tasks
					if distributed {
						x.ParallelForDistributed(512, body)
					} else {
						x.ParallelFor(512, body)
					}
				})
			}
			if err := sys.Simulate(); err != nil {
				b.Fatal(err)
			}
			st := sys.Stats()
			b.ReportMetric(float64(st.Cycles), "sim-cycles")
			b.ReportMetric(float64(st.Messages[MsgAtomic]), "atomics")
		}
	}
	b.Run("central", func(b *testing.B) { run(b, false) })
	b.Run("distributed", func(b *testing.B) { run(b, true) })
}
