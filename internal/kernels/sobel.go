package kernels

import (
	"math/rand"

	"cohesion/internal/rt"
)

// BuildSobel is 3x3 Sobel edge detection over an n x n image with a halo:
// a single data-parallel phase with an immutable read-shared input and a
// write-once output — the most coherence-friendly of the eight kernels.
func BuildSobel(r *rt.Runtime, p Params) (*Instance, error) {
	n := 24 * p.Scale
	stride := n + 2
	rng := rand.New(rand.NewSource(p.Seed + 3))

	img := r.GlobalAlloc(uint64(4 * stride * stride))
	out := r.CohMalloc(uint64(4 * n * n))

	pix := make([]float32, stride*stride)
	for i := range pix {
		pix[i] = float32(rng.Intn(256))
		r.WriteF32(w(img, i), pix[i])
	}
	abs := func(f float32) float32 {
		if f < 0 {
			return -f
		}
		return f
	}
	want := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k := (i+1)*stride + (j + 1)
			gx := (pix[k-stride+1] + float32(2*pix[k+1]) + pix[k+stride+1]) -
				(pix[k-stride-1] + float32(2*pix[k-1]) + pix[k+stride-1])
			gy := (pix[k+stride-1] + float32(2*pix[k+stride]) + pix[k+stride+1]) -
				(pix[k-stride-1] + float32(2*pix[k-stride]) + pix[k-stride+1])
			want[i*n+j] = abs(gx) + abs(gy)
		}
	}

	rowsPerTask := 3
	tasks := (n + rowsPerTask - 1) / rowsPerTask
	// The twelve taps of both gradients, in the order gx and gy read them.
	offs := [12]int{
		-stride + 1, 1, stride + 1, -stride - 1, -1, stride - 1,
		stride - 1, stride, stride + 1, -stride - 1, -stride, -stride + 1,
	}

	worker := func(x *rt.Ctx) {
		x.ParallelFor(tasks, func(task int) {
			f := openFrame(x, 12)
			r0 := task * rowsPerTask
			r1 := r0 + rowsPerTask
			if r1 > n {
				r1 = n
			}
			for i := r0; i < r1; i++ {
				for j := 0; j < n; j++ {
					k := (i+1)*stride + (j + 1)
					for _, o := range offs {
						x.Gather(w(img, k+o))
					}
					x.Work(6)
					p := gathered(x.Sync())
					gx := (p.f32() + float32(2*p.f32()) + p.f32()) - (p.f32() + float32(2*p.f32()) + p.f32())
					gy := (p.f32() + float32(2*p.f32()) + p.f32()) - (p.f32() + float32(2*p.f32()) + p.f32())
					v := gx
					if v < 0 {
						v = -v
					}
					g := gy
					if g < 0 {
						g = -g
					}
					x.StoreF32(w(out, i*n+j), v+g)
				}
				x.FlushIfSWcc(w(out, i*n), uint64(4*n))
			}
			f.close()
		})
	}

	verify := func(r *rt.Runtime) error {
		return verifyF32(r, "sobel", uint64(out), func(i int) float32 { return r.ReadF32(w(out, i)) }, want)
	}
	return &Instance{Name: "sobel", CodeBytes: 2 << 10, Worker: worker, Verify: verify}, nil
}
