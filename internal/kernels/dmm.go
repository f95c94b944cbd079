package kernels

import (
	"fmt"
	"math/rand"

	"cohesion/internal/addr"
	"cohesion/internal/rt"
)

// w returns the address of word i of a word array at base.
func w(base addr.Addr, i int) addr.Addr { return base + addr.Addr(4*i) }

// BuildDMM is dense matrix multiply: C = A x B over n x n float32
// matrices. A and B are immutable inputs (read-shared); each task owns a
// block of C rows, written once and flushed eagerly under software
// coherence — the paper's regular, barrier-free-sharing workload.
func BuildDMM(r *rt.Runtime, p Params) (*Instance, error) {
	n := 12 * p.Scale
	rng := rand.New(rand.NewSource(p.Seed + 1))

	a := r.GlobalAlloc(uint64(4 * n * n))
	b := r.GlobalAlloc(uint64(4 * n * n))
	c := r.CohMalloc(uint64(4 * n * n))

	av := make([]float32, n*n)
	bv := make([]float32, n*n)
	for i := range av {
		av[i] = float32(rng.Intn(64)-32) / 8
		bv[i] = float32(rng.Intn(64)-32) / 8
		r.WriteF32(w(a, i), av[i])
		r.WriteF32(w(b, i), bv[i])
	}
	want := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for k := 0; k < n; k++ {
				s += float32(av[i*n+k] * bv[k*n+j])
			}
			want[i*n+j] = s
		}
	}

	worker := func(x *rt.Ctx) {
		x.ParallelFor(n, func(row int) {
			f := openFrame(x, 12)
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					x.Gather(w(a, row*n+k))
					x.Gather(w(b, k*n+j))
					x.Work(2) // multiply-add
				}
				g := gathered(x.Sync())
				var s float32
				for k := 0; k < n; k++ {
					s += float32(g.f32() * g.f32())
				}
				x.StoreF32(w(c, row*n+j), s)
			}
			x.FlushIfSWcc(w(c, row*n), uint64(4*n))
			f.close()
		})
	}

	verify := func(r *rt.Runtime) error {
		return verifyF32(r, "dmm", uint64(c), func(i int) float32 { return r.ReadF32(w(c, i)) }, want)
	}
	if n < 1 {
		return nil, fmt.Errorf("dmm: bad scale")
	}
	return &Instance{Name: "dmm", CodeBytes: 2 << 10, Worker: worker, Verify: verify}, nil
}
