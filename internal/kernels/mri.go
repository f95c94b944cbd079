package kernels

import (
	"fmt"
	"math"
	"math/rand"

	"cohesion/internal/rt"
)

// errf is fmt.Errorf, shared by kernel verifiers.
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }

// BuildMRI is non-Cartesian MRI reconstruction (the FHd computation): for
// every voxel, accumulate cos/sin phase contributions over all k-space
// samples. It is the paper's arithmetic-intensity-bound kernel (§4.5: mri
// is "limited by ... execution efficiency due to its high arithmetic
// intensity") — each sample costs trigonometric work, modelled with Work
// cycles per term. Inputs (sample trajectory and voxel coordinates) are
// immutable and read-shared; the per-voxel output is written once.
func BuildMRI(r *rt.Runtime, p Params) (*Instance, error) {
	samples := 32 * p.Scale
	voxels := 32 * p.Scale
	voxPerTask := 4
	tasks := (voxels + voxPerTask - 1) / voxPerTask
	rng := rand.New(rand.NewSource(p.Seed + 8))

	kTraj := r.GlobalAlloc(uint64(4 * samples * 5)) // kx ky kz phiR phiI
	vox := r.GlobalAlloc(uint64(4 * voxels * 3))    // x y z
	outR := r.CohMalloc(uint64(4 * voxels))
	outI := r.CohMalloc(uint64(4 * voxels))

	kt := make([]float32, samples*5)
	for i := range kt {
		kt[i] = float32(rng.Intn(256)-128) / 256
		r.WriteF32(w(kTraj, i), kt[i])
	}
	xyz := make([]float32, voxels*3)
	for i := range xyz {
		xyz[i] = float32(rng.Intn(64)) / 8
		r.WriteF32(w(vox, i), xyz[i])
	}

	fhd := func(loadK, loadV func(i int) float32, v int) (float32, float32) {
		var sr, si float32
		vx, vy, vz := loadV(v*3), loadV(v*3+1), loadV(v*3+2)
		for s := 0; s < samples; s++ {
			kx, ky, kz := loadK(s*5), loadK(s*5+1), loadK(s*5+2)
			phiR, phiI := loadK(s*5+3), loadK(s*5+4)
			arg := float64(2 * math.Pi * (float32(kx*vx) + float32(ky*vy) + float32(kz*vz)))
			c := float32(math.Cos(arg))
			sn := float32(math.Sin(arg))
			sr += float32(phiR*c) - float32(phiI*sn)
			si += float32(phiI*c) + float32(phiR*sn)
		}
		return sr, si
	}

	wantR := make([]float32, voxels)
	wantI := make([]float32, voxels)
	for v := 0; v < voxels; v++ {
		wantR[v], wantI[v] = fhd(
			func(i int) float32 { return kt[i] },
			func(i int) float32 { return xyz[i] }, v)
	}

	worker := func(x *rt.Ctx) {
		x.ParallelFor(tasks, func(task int) {
			f := openFrame(x, 12)
			lo, hi := task*voxPerTask, (task+1)*voxPerTask
			if hi > voxels {
				hi = voxels
			}
			for v := lo; v < hi; v++ {
				// fhd's loads in its order, each sample word behind its trig.
				for i := 0; i < 3; i++ {
					x.Gather(w(vox, v*3+i))
				}
				for i := 0; i < samples*5; i++ {
					x.Work(12) // trig-heavy inner loop
					x.Gather(w(kTraj, i))
				}
				g := gathered(x.Sync())
				next := func(int) float32 { return g.f32() }
				sr, si := fhd(next, next, v)
				x.StoreF32(w(outR, v), sr)
				x.StoreF32(w(outI, v), si)
			}
			x.FlushIfSWcc(w(outR, lo), uint64(4*(hi-lo)))
			x.FlushIfSWcc(w(outI, lo), uint64(4*(hi-lo)))
			f.close()
		})
	}

	verify := func(r *rt.Runtime) error {
		if err := verifyF32(r, "mri.re", uint64(outR), func(i int) float32 { return r.ReadF32(w(outR, i)) }, wantR); err != nil {
			return err
		}
		return verifyF32(r, "mri.im", uint64(outI), func(i int) float32 { return r.ReadF32(w(outI, i)) }, wantI)
	}
	return &Instance{Name: "mri", CodeBytes: 2 << 10, Worker: worker, Verify: verify}, nil
}
