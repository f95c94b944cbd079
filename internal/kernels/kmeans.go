package kernels

import (
	"fmt"
	"math/rand"

	"cohesion/internal/config"
	"cohesion/internal/rt"
)

// BuildKMeans is k-means clustering. The assignment phase histograms
// points into clusters; under SWcc and HWcc this is done the way the
// paper's benchmark does it — per-point uncached atomic read-modify-write
// operations, which dominate the kernel's traffic (paper §2.1: kmeans "is
// dominated by atomic read-modify-write histogramming operations"). The
// Cohesion variant exploits hardware coherence to accumulate into
// per-task partial sums merged with plain cached accesses, the
// optimization the paper credits for Cohesion's kmeans win (§4.2).
// Accumulation uses 8.8 fixed point so every variant is bit-deterministic.
func BuildKMeans(r *rt.Runtime, p Params) (*Instance, error) {
	const (
		dims  = 4
		k     = 4
		iters = 3
		fx    = 256 // fixed-point scale
	)
	points := 64 * p.Scale
	ptsPerTask := 8
	tasks := (points + ptsPerTask - 1) / ptsPerTask
	rng := rand.New(rand.NewSource(p.Seed + 5))

	// Centroid, histogram, and partial slots are padded to a full cache
	// line (8 words) so per-structure invalidates and flushes never touch
	// a neighbor's dirty words and partial slots do not false-share.
	const slot = 8
	pts := r.GlobalAlloc(uint64(4 * points * dims))
	cent := r.Malloc(uint64(4 * k * slot)) // HWcc under Cohesion
	sums := r.Malloc(uint64(4 * k * slot)) // fixed-point sums + count
	part := r.Malloc(uint64(4 * tasks * k * slot))
	assign := r.CohMalloc(uint64(4 * points))

	pv := make([]float32, points*dims)
	for i := range pv {
		pv[i] = float32(rng.Intn(16*fx)) / fx
		r.WriteF32(w(pts, i), pv[i])
	}
	cv := make([]float32, k*dims)
	for c := 0; c < k; c++ {
		for d := 0; d < dims; d++ {
			cv[c*dims+d] = pv[(c*points/k)*dims+d]
			r.WriteF32(w(cent, c*slot+d), cv[c*dims+d])
		}
	}

	nearest := func(cents []float32, p []float32) int {
		best, bi := float32(0), 0
		for c := 0; c < k; c++ {
			var d2 float32
			for d := 0; d < dims; d++ {
				df := p[d] - cents[c*dims+d]
				d2 += float32(df * df)
			}
			if c == 0 || d2 < best {
				best, bi = d2, c
			}
		}
		return bi
	}

	// Golden: same fixed-point accumulation, sequential.
	wantAssign := make([]uint32, points)
	{
		cents := append([]float32(nil), cv...)
		for t := 0; t < iters; t++ {
			cnt := make([]uint32, k)
			sum := make([]uint32, k*dims)
			for i := 0; i < points; i++ {
				c := nearest(cents, pv[i*dims:(i+1)*dims])
				wantAssign[i] = uint32(c)
				cnt[c]++
				for d := 0; d < dims; d++ {
					sum[c*dims+d] += uint32(pv[i*dims+d] * fx)
				}
			}
			for c := 0; c < k; c++ {
				if cnt[c] == 0 {
					continue
				}
				for d := 0; d < dims; d++ {
					cents[c*dims+d] = float32(sum[c*dims+d]) / fx / float32(cnt[c])
				}
			}
		}
		cv = cents
	}

	sumIdx := func(c, d int) int { return c*slot + d } // d == dims is the count
	worker := func(x *rt.Ctx) {
		cohesion := x.Mode() == config.Cohesion
		for t := 0; t < iters; t++ {
			if !cohesion {
				// Zero the shared histogram with uncached stores.
				x.ParallelFor(k, func(c int) {
					for d := 0; d <= dims; d++ {
						x.UncStore(w(sums, sumIdx(c, d)), 0)
					}
				})
			}
			x.ParallelFor(tasks, func(task int) {
				f := openFrame(x, 12)
				// Read the current centroids once per task; they ride in
				// the first point's batch.
				x.InvIfSWcc(cent, uint64(4*k*slot))
				for c := 0; c < k; c++ {
					for d := 0; d < dims; d++ {
						x.Gather(w(cent, c*slot+d))
					}
				}
				cents := make([]float32, k*dims)
				var lc [k]uint32
				var ls [k * dims]uint32
				lo, hi := task*ptsPerTask, (task+1)*ptsPerTask
				if hi > points {
					hi = points
				}
				for i := lo; i < hi; i++ {
					for d := 0; d < dims; d++ {
						x.Gather(w(pts, i*dims+d))
					}
					x.Work(2 * k * dims) // distance arithmetic
					g := gathered(x.Sync())
					if i == lo {
						for j := range cents {
							cents[j] = g.f32()
						}
					}
					var pt [dims]float32
					for d := range pt {
						pt[d] = g.f32()
					}
					c := nearest(cents, pt[:])
					x.Store(w(assign, i), uint32(c))
					if cohesion {
						lc[c]++
						for d := 0; d < dims; d++ {
							ls[c*dims+d] += uint32(pt[d] * fx)
						}
					} else {
						// The paper's histogramming: uncached atomics.
						x.AtomicAdd(w(sums, sumIdx(c, dims)), 1)
						for d := 0; d < dims; d++ {
							x.AtomicAdd(w(sums, sumIdx(c, d)), uint32(pt[d]*fx))
						}
					}
				}
				if cohesion {
					for c := 0; c < k; c++ {
						base := (task*k + c) * slot
						for d := 0; d < dims; d++ {
							x.Store(w(part, base+d), ls[c*dims+d])
						}
						x.Store(w(part, base+dims), lc[c])
					}
				}
				x.FlushIfSWcc(w(assign, lo), uint64(4*(hi-lo)))
				f.close()
			})
			// Update phase: one task per centroid.
			x.ParallelFor(k, func(c int) {
				var cnt uint32
				var sum [dims]uint32
				if cohesion {
					for task := 0; task < tasks; task++ {
						base := (task*k + c) * slot
						for d := 0; d <= dims; d++ {
							x.Gather(w(part, base+d))
						}
					}
				} else {
					x.InvIfSWcc(w(sums, sumIdx(c, 0)), uint64(4*slot))
					for d := 0; d <= dims; d++ {
						x.Gather(w(sums, sumIdx(c, d)))
					}
				}
				// Either way the batch is groups of dims sums and a count.
				for g := gathered(x.Sync()); len(g) > 0; {
					for d := range sum {
						sum[d] += g.word()
					}
					cnt += g.word()
				}
				if cnt != 0 {
					for d := 0; d < dims; d++ {
						x.StoreF32(w(cent, c*slot+d), float32(sum[d])/fx/float32(cnt))
					}
					x.FlushIfSWcc(w(cent, c*slot), uint64(4*dims))
				}
				x.Work(4 * dims)
			})
		}
	}

	verify := func(r *rt.Runtime) error {
		for i := 0; i < points; i++ {
			if got := r.ReadWord(w(assign, i)); got != wantAssign[i] {
				return fmt.Errorf("kmeans: point %d assigned to %d, want %d", i, got, wantAssign[i])
			}
		}
		return verifyF32("kmeans",
			func(i int) float32 { return r.ReadF32(w(cent, (i/dims)*slot+i%dims)) }, cv)
	}
	return &Instance{Name: "kmeans", CodeBytes: 3 << 10, Worker: worker, Verify: verify}, nil
}
