package kernels

import (
	"math/rand"

	"cohesion/internal/addr"
	"cohesion/internal/rt"
)

// BuildStencil is the 3D 7-point stencil: T sweeps over an n^3 interior
// with fixed boundaries, ping-ponging between two volumes. Tasks own z
// slabs; the halo planes they read were produced by neighboring tasks on
// arbitrary clusters, making this the heaviest flush/invalidate kernel.
func BuildStencil(r *rt.Runtime, p Params) (*Instance, error) {
	n := 6 * p.Scale
	const iters = 2
	s := n + 2 // padded dimension
	words := s * s * s
	rng := rand.New(rand.NewSource(p.Seed + 4))

	vol := [2]addr.Addr{
		r.CohMalloc(uint64(4 * words)),
		r.CohMalloc(uint64(4 * words)),
	}
	cur := make([]float32, words)
	for i := range cur {
		cur[i] = float32(rng.Intn(1000)) / 50
		r.WriteF32(w(vol[0], i), cur[i])
		r.WriteF32(w(vol[1], i), cur[i])
	}
	idx := func(z, y, xx int) int { return (z*s+y)*s + xx }
	next := make([]float32, words)
	copy(next, cur)
	for t := 0; t < iters; t++ {
		for z := 1; z <= n; z++ {
			for y := 1; y <= n; y++ {
				for xx := 1; xx <= n; xx++ {
					k := idx(z, y, xx)
					next[k] = (cur[k] + cur[k-1] + cur[k+1] +
						cur[k-s] + cur[k+s] + cur[k-s*s] + cur[k+s*s]) / 7
				}
			}
		}
		cur, next = next, cur
	}
	want := cur

	planeWords := s * s
	// The seven points of the stencil, in the order its sum reads them.
	offs := [7]int{0, -1, 1, -s, s, -s * s, s * s}
	worker := func(x *rt.Ctx) {
		for t := 0; t < iters; t++ {
			src, dst := vol[t%2], vol[(t+1)%2]
			x.ParallelFor(n, func(task int) { // one z-plane per task
				f := openFrame(x, 12)
				z := 1 + task
				// Lazy invalidation: the three source planes this task reads.
				x.InvIfSWcc(w(src, (z-1)*planeWords), uint64(4*3*planeWords))
				for y := 1; y <= n; y++ {
					for xx := 1; xx <= n; xx++ {
						k := idx(z, y, xx)
						for _, o := range offs {
							x.Gather(w(src, k+o))
						}
						x.Work(7)
						g := gathered(x.Sync())
						v := (g.f32() + g.f32() + g.f32() + g.f32() + g.f32() + g.f32() + g.f32()) / 7
						x.StoreF32(w(dst, k), v)
					}
				}
				// Eager writeback of the produced plane.
				x.FlushIfSWcc(w(dst, z*planeWords), uint64(4*planeWords))
				f.close()
			})
		}
	}

	verify := func(r *rt.Runtime) error {
		final := vol[iters%2]
		return verifyF32("stencil", func(i int) float32 { return r.ReadF32(w(final, i)) }, want)
	}
	return &Instance{Name: "stencil", CodeBytes: 3 << 10, Worker: worker, Verify: verify}, nil
}
