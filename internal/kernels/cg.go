package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"cohesion/internal/addr"
	"cohesion/internal/rt"
)

// BuildCG is a conjugate-gradient solve of the 2D 5-point Laplacian system
// A x = b over an n x n grid (matrix-free SpMV), the paper's irregular
// reduction-heavy kernel: five bulk-synchronous phases per iteration
// (SpMV + dot partials, dot reduce, axpy + residual partials, scalar
// update, direction update), with scalars and partial-sum slots bouncing
// between a single reducer task and all workers every phase — the sharing
// pattern where software coherence pays its full flush/invalidate tax.
func BuildCG(r *rt.Runtime, p Params) (*Instance, error) {
	n := 8 * p.Scale
	N := n * n
	const iters = 3
	rowsPerTask := 2
	tasks := n / rowsPerTask
	rng := rand.New(rand.NewSource(p.Seed + 6))

	// Vectors live on the incoherent heap (SWcc under Cohesion); the
	// scalar block and partial slots are padded to full lines.
	bV := r.GlobalAlloc(uint64(4 * N))
	xV := r.CohMalloc(uint64(4 * N))
	rV := r.CohMalloc(uint64(4 * N))
	pV := r.CohMalloc(uint64(4 * N))
	// q, the scalars, and the partial-sum slots are the kernel's
	// fine-grained, reducer-shared structures: under Cohesion they stay on
	// the coherent heap (hardware-managed), which is exactly the sharing
	// pattern the paper keeps HWcc for; the block-owned vectors go on the
	// incoherent heap.
	qV := r.Malloc(uint64(4 * N))
	scal := r.Malloc(32)                     // rr(0) pq(1) alpha(2) beta(3)
	partA := r.Malloc(uint64(4 * 8 * tasks)) // line-padded partial slots
	partB := r.Malloc(uint64(4 * 8 * tasks))

	bv := make([]float32, N)
	for i := range bv {
		bv[i] = float32(rng.Intn(200)-100) / 64
		r.WriteF32(w(bV, i), bv[i])
		r.WriteF32(w(rV, i), bv[i]) // r0 = b (x0 = 0)
		r.WriteF32(w(pV, i), bv[i]) // p0 = r0
	}

	// The matrix-free operator: (A p)[i,j] = 4 p[i,j] - neighbors
	// (Dirichlet boundary: off-grid terms are zero).
	apply := func(pv []float32, i, j int) float32 {
		k := i*n + j
		v := float32(4 * pv[k])
		if j > 0 {
			v -= pv[k-1]
		}
		if j < n-1 {
			v -= pv[k+1]
		}
		if i > 0 {
			v -= pv[k-n]
		}
		if i < n-1 {
			v -= pv[k+n]
		}
		return v
	}

	// Golden CG with the same task decomposition and reduction order.
	wantX := make([]float32, N)
	wantR := append([]float32(nil), bv...)
	{
		xg := wantX
		rg := wantR
		pg := append([]float32(nil), bv...)
		qg := make([]float32, N)
		partial := make([]float32, tasks)
		reduce := func() float32 {
			var s float32
			for t := 0; t < tasks; t++ {
				s += partial[t]
			}
			return s
		}
		var rr float32
		for t := 0; t < tasks; t++ {
			partial[t] = 0
			for i := t * rowsPerTask; i < (t+1)*rowsPerTask; i++ {
				for j := 0; j < n; j++ {
					partial[t] += float32(rg[i*n+j] * rg[i*n+j])
				}
			}
		}
		rr = reduce()
		for it := 0; it < iters; it++ {
			for t := 0; t < tasks; t++ {
				partial[t] = 0
				for i := t * rowsPerTask; i < (t+1)*rowsPerTask; i++ {
					for j := 0; j < n; j++ {
						q := apply(pg, i, j)
						qg[i*n+j] = q
						partial[t] += float32(pg[i*n+j] * q)
					}
				}
			}
			alpha := rr / reduce()
			for t := 0; t < tasks; t++ {
				partial[t] = 0
				for i := t * rowsPerTask; i < (t+1)*rowsPerTask; i++ {
					for j := 0; j < n; j++ {
						k := i*n + j
						xg[k] += float32(alpha * pg[k])
						rg[k] -= float32(alpha * qg[k])
						partial[t] += float32(rg[k] * rg[k])
					}
				}
			}
			rrNew := reduce()
			beta := rrNew / rr
			rr = rrNew
			for t := 0; t < tasks; t++ {
				for i := t * rowsPerTask; i < (t+1)*rowsPerTask; i++ {
					for j := 0; j < n; j++ {
						k := i*n + j
						pg[k] = rg[k] + float32(beta*pg[k])
					}
				}
			}
		}
	}

	blockAddr := func(v addr.Addr, task int) addr.Addr { return w(v, task*rowsPerTask*n) }
	blockBytes := uint64(4 * rowsPerTask * n)
	// haloAddr covers a task's p-block plus one row either side.
	invHalo := func(x *rt.Ctx, v addr.Addr, task int) {
		lo := task*rowsPerTask - 1
		rows := rowsPerTask + 2
		if lo < 0 {
			lo, rows = 0, rowsPerTask+1
		}
		if lo+rows > n { // clamp to the grid's last row
			rows = n - lo
		}
		x.InvIfSWcc(w(v, lo*n), uint64(4*rows*n))
	}
	// reduce sums part's partial slots, each loaded with one cycle of add
	// work; the rest of the batch holds the words at also.
	reduce := func(x *rt.Ctx, part addr.Addr, also ...addr.Addr) (float32, gathered) {
		for t := 0; t < tasks; t++ {
			x.Gather(w(part, 8*t))
			x.Work(1)
		}
		for _, a := range also {
			x.Gather(a)
		}
		g := gathered(x.Sync())
		var s float32
		for t := 0; t < tasks; t++ {
			s += g.f32()
		}
		return s, g
	}
	reducePhase := func(x *rt.Ctx, part addr.Addr, dst int) {
		// Single reducer task: sums partial slots into scalar word dst.
		x.ParallelFor(1, func(int) {
			x.InvIfSWcc(part, uint64(4*8*tasks))
			x.InvIfSWcc(scal, 32)
			s, _ := reduce(x, part)
			x.StoreF32(w(scal, dst), s)
			x.FlushIfSWcc(scal, 32)
		})
	}

	worker := func(x *rt.Ctx) {
		// rr0 = r . r
		x.ParallelFor(tasks, func(t int) {
			invHalo(x, rV, t)
			for i := 0; i < rowsPerTask*n; i++ {
				x.Gather(w(rV, t*rowsPerTask*n+i))
				x.Work(2)
			}
			g := gathered(x.Sync())
			var s float32
			for i := 0; i < rowsPerTask*n; i++ {
				v := g.f32()
				s += float32(v * v)
			}
			x.StoreF32(w(partA, 8*t), s)
			x.FlushIfSWcc(w(partA, 8*t), 4)
		})
		reducePhase(x, partA, 0) // rr

		for it := 0; it < iters; it++ {
			// Phase 1: q = A p, partial pq.
			x.ParallelFor(tasks, func(t int) {
				f := openFrame(x, 12)
				invHalo(x, pV, t)
				var s, v float32
				for i := t * rowsPerTask; i < (t+1)*rowsPerTask; i++ {
					for j := 0; j < n; j++ {
						k := i*n + j
						x.Gather(w(pV, k))
						if j > 0 {
							x.Gather(w(pV, k-1))
						}
						if j < n-1 {
							x.Gather(w(pV, k+1))
						}
						if i > 0 {
							x.Gather(w(pV, k-n))
						}
						if i < n-1 {
							x.Gather(w(pV, k+n))
						}
						x.Work(5)
						g := gathered(x.Sync())
						if k > t*rowsPerTask*n {
							s += float32(g.f32() * v) // the previous element's p, loaded after its q store
						}
						v = float32(4 * g.f32())
						for len(g) > 0 {
							v -= g.f32() // the neighbors, in the operator's order
						}
						x.StoreF32(w(qV, k), v)
						x.Gather(w(pV, k)) // joins the next element's batch
					}
				}
				g := gathered(x.Sync())
				s += float32(g.f32() * v)
				x.StoreF32(w(partA, 8*t), s)
				x.FlushIfSWcc(blockAddr(qV, t), blockBytes)
				x.FlushIfSWcc(w(partA, 8*t), 4)
				f.close()
			})
			// Phase 2: alpha = rr / pq.
			x.ParallelFor(1, func(int) {
				x.InvIfSWcc(partA, uint64(4*8*tasks))
				x.InvIfSWcc(scal, 32)
				pq, g := reduce(x, partA, w(scal, 0))
				rr := g.f32()
				x.StoreF32(w(scal, 2), rr/pq)
				x.FlushIfSWcc(scal, 32)
			})
			// Phase 3: x += alpha p; r -= alpha q; partial rr.
			x.ParallelFor(tasks, func(t int) {
				f := openFrame(x, 12)
				x.InvIfSWcc(scal, 32)
				alpha := x.LoadF32(w(scal, 2))
				x.InvIfSWcc(blockAddr(pV, t), blockBytes)
				x.InvIfSWcc(blockAddr(qV, t), blockBytes)
				x.InvIfSWcc(blockAddr(xV, t), blockBytes)
				x.InvIfSWcc(blockAddr(rV, t), blockBytes)
				var s float32
				for i := 0; i < rowsPerTask*n; i++ {
					k := t*rowsPerTask*n + i
					x.Gather(w(xV, k))
					x.Gather(w(pV, k))
					g := gathered(x.Sync())
					xv := g.f32() + float32(alpha*g.f32())
					x.StoreF32(w(xV, k), xv)
					x.Gather(w(rV, k))
					x.Gather(w(qV, k))
					g = gathered(x.Sync())
					rv := g.f32() - float32(alpha*g.f32())
					x.StoreF32(w(rV, k), rv)
					s += float32(rv * rv)
					x.Work(6)
				}
				x.StoreF32(w(partB, 8*t), s)
				x.FlushIfSWcc(blockAddr(xV, t), blockBytes)
				x.FlushIfSWcc(blockAddr(rV, t), blockBytes)
				x.FlushIfSWcc(w(partB, 8*t), 4)
				f.close()
			})
			// Phase 4: beta = rrNew / rr; rr = rrNew.
			x.ParallelFor(1, func(int) {
				x.InvIfSWcc(partB, uint64(4*8*tasks))
				x.InvIfSWcc(scal, 32)
				rrNew, g := reduce(x, partB, w(scal, 0))
				rr := g.f32()
				x.StoreF32(w(scal, 3), rrNew/rr)
				x.StoreF32(w(scal, 0), rrNew)
				x.FlushIfSWcc(scal, 32)
			})
			// Phase 5: p = r + beta p.
			x.ParallelFor(tasks, func(t int) {
				x.InvIfSWcc(scal, 32)
				beta := x.LoadF32(w(scal, 3))
				x.InvIfSWcc(blockAddr(rV, t), blockBytes)
				x.InvIfSWcc(blockAddr(pV, t), blockBytes)
				for i := 0; i < rowsPerTask*n; i++ {
					k := t*rowsPerTask*n + i
					x.Gather(w(rV, k))
					x.Gather(w(pV, k))
					g := gathered(x.Sync())
					x.StoreF32(w(pV, k), g.f32()+float32(beta*g.f32()))
					x.Work(2)
				}
				x.FlushIfSWcc(blockAddr(pV, t), blockBytes)
			})
		}
	}

	verify := func(r *rt.Runtime) error {
		if err := verifyF32(r, "cg.x", uint64(xV), func(i int) float32 { return r.ReadF32(w(xV, i)) }, wantX); err != nil {
			return err
		}
		if err := verifyF32(r, "cg.r", uint64(rV), func(i int) float32 { return r.ReadF32(w(rV, i)) }, wantR); err != nil {
			return err
		}
		// Sanity: CG must actually have reduced the residual.
		var rr0, rrT float64
		for i := 0; i < N; i++ {
			rr0 += float64(float64(bv[i]) * float64(bv[i]))
			rrT += float64(float64(wantR[i]) * float64(wantR[i]))
		}
		if math.Sqrt(rrT) > 0.9*math.Sqrt(rr0) {
			return fmt.Errorf("cg: residual did not decrease (%g -> %g)", rr0, rrT)
		}
		return nil
	}
	return &Instance{Name: "cg", CodeBytes: 6 << 10, Worker: worker, Verify: verify}, nil
}
