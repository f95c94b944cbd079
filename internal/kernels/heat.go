package kernels

import (
	"math/rand"

	"cohesion/internal/addr"
	"cohesion/internal/rt"
)

// BuildHeat is the 2D Jacobi heat stencil: T sweeps over an n x n interior
// with a fixed boundary, ping-ponging between two grids. Each task owns a
// block of rows; across sweeps the producer of a row block and its reader
// may land on different clusters, so software coherence must eagerly
// flush written rows and lazily invalidate the rows a task is about to
// read (exactly the Figure 3 idiom).
func BuildHeat(r *rt.Runtime, p Params) (*Instance, error) {
	n := 16 * p.Scale // interior size
	const iters = 4
	stride := n + 2
	words := stride * stride
	rng := rand.New(rand.NewSource(p.Seed + 2))

	grid := [2]addr.Addr{
		r.CohMalloc(uint64(4 * words)),
		r.CohMalloc(uint64(4 * words)),
	}
	cur := make([]float32, words)
	for i := range cur {
		cur[i] = float32(rng.Intn(1000)) / 100
		r.WriteF32(w(grid[0], i), cur[i])
		r.WriteF32(w(grid[1], i), cur[i]) // boundaries identical in both
	}
	// Golden: T Jacobi sweeps in float32.
	next := make([]float32, words)
	copy(next, cur)
	for t := 0; t < iters; t++ {
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				k := i*stride + j
				next[k] = 0.25 * (cur[k-1] + cur[k+1] + cur[k-stride] + cur[k+stride])
			}
		}
		cur, next = next, cur
	}
	want := cur

	rowsPerTask := 2
	tasks := (n + rowsPerTask - 1) / rowsPerTask
	rowAddr := func(g addr.Addr, row int) addr.Addr { return w(g, row*stride) }

	worker := func(x *rt.Ctx) {
		for t := 0; t < iters; t++ {
			src, dst := grid[t%2], grid[(t+1)%2]
			x.ParallelFor(tasks, func(task int) {
				f := openFrame(x, 12)
				r0 := 1 + task*rowsPerTask
				r1 := r0 + rowsPerTask
				if r1 > n+1 {
					r1 = n + 1
				}
				// Lazy invalidation of the input rows this task reads
				// (they were produced by arbitrary clusters last sweep).
				x.InvIfSWcc(rowAddr(src, r0-1), uint64(4*stride*(r1-r0+2)))
				for i := r0; i < r1; i++ {
					for j := 1; j <= n; j++ {
						k := i*stride + j
						x.Gather(w(src, k-1))
						x.Gather(w(src, k+1))
						x.Gather(w(src, k-stride))
						x.Gather(w(src, k+stride))
						x.Work(4)
						g := gathered(x.Sync())
						v := 0.25 * (g.f32() + g.f32() + g.f32() + g.f32())
						x.StoreF32(w(dst, k), v)
					}
				}
				// Eager writeback of produced rows.
				x.FlushIfSWcc(rowAddr(dst, r0), uint64(4*stride*(r1-r0)))
				f.close()
			})
		}
	}

	verify := func(r *rt.Runtime) error {
		final := grid[iters%2]
		return verifyF32("heat", func(i int) float32 { return r.ReadF32(w(final, i)) }, want)
	}
	return &Instance{Name: "heat", CodeBytes: 2 << 10, Worker: worker, Verify: verify}, nil
}
