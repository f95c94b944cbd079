package kernels

import (
	"math/rand"

	"cohesion/internal/rt"
)

// BuildGJK is convex collision detection over object pairs. Each tiny task
// runs support-function queries (the core primitive of the GJK algorithm)
// for one pair of convex point clouds along a fixed direction set,
// producing a separation estimate and an intersection flag. The paper's
// gjk is characterized by very small tasks whose scheduling overhead — the
// atomic task-queue dequeues — rivals their compute (§4.5); the workload
// here preserves exactly that granularity. The full GJK simplex iteration
// is replaced by the separating-axis support sweep (a documented
// substitution: same data-access structure — immutable vertex sets,
// write-once per-pair outputs — and the same support-function inner loop).
func BuildGJK(r *rt.Runtime, p Params) (*Instance, error) {
	const (
		verts = 16 // vertices per convex object
		ndirs = 13
	)
	pairs := 24 * p.Scale
	objects := 8 + 4*p.Scale
	rng := rand.New(rand.NewSource(p.Seed + 7))

	// Direction set: axes, face diagonals, cube diagonals (classic SAT set).
	dirs := [][3]float32{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{1, 1, 0}, {1, -1, 0}, {1, 0, 1}, {1, 0, -1}, {0, 1, 1}, {0, 1, -1},
		{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {-1, 1, 1},
	}

	objA := r.GlobalAlloc(uint64(4 * objects * verts * 3))
	pairIdx := r.GlobalAlloc(uint64(4 * pairs * 2))
	// Per-pair outputs are tiny and irregular — flushing a line per word
	// is not worth it, so under Cohesion they stay hardware-coherent.
	outSep := r.Malloc(uint64(4 * pairs))
	outHit := r.Malloc(uint64(4 * pairs))

	ov := make([]float32, objects*verts*3)
	for o := 0; o < objects; o++ {
		// A convex-ish cloud: random points around a random center. Both
		// are drawn in sixteenths and added as integers, so each
		// coordinate is one exact conversion, with no float add to fuse.
		cx := rng.Intn(640)
		cy := rng.Intn(640)
		cz := rng.Intn(640)
		for v := 0; v < verts; v++ {
			i := (o*verts + v) * 3
			ov[i] = float32(cx+rng.Intn(64)-32) / 16
			ov[i+1] = float32(cy+rng.Intn(64)-32) / 16
			ov[i+2] = float32(cz+rng.Intn(64)-32) / 16
			r.WriteF32(w(objA, i), ov[i])
			r.WriteF32(w(objA, i+1), ov[i+1])
			r.WriteF32(w(objA, i+2), ov[i+2])
		}
	}
	pair := make([][2]int, pairs)
	for i := range pair {
		a := rng.Intn(objects)
		b := rng.Intn(objects)
		if b == a {
			b = (a + 1) % objects
		}
		pair[i] = [2]int{a, b}
		r.WriteWord(w(pairIdx, 2*i), uint32(a))
		r.WriteWord(w(pairIdx, 2*i+1), uint32(b))
	}

	// support computes max/min of v . d over an object's vertices.
	type supFn func(load func(i int) float32, obj int, d [3]float32) (max, min float32)
	support := func(load func(i int) float32, obj int, d [3]float32) (mx, mn float32) {
		for v := 0; v < verts; v++ {
			i := (obj*verts + v) * 3
			dot := float32(load(i)*d[0]) + float32(load(i+1)*d[1]) + float32(load(i+2)*d[2])
			if v == 0 || dot > mx {
				mx = dot
			}
			if v == 0 || dot < mn {
				mn = dot
			}
		}
		return
	}
	var _ supFn = support

	sepOf := func(load func(i int) float32, a, b int) (float32, bool) {
		best := float32(0)
		first := true
		for _, d := range dirs {
			maxA, minA := support(load, a, d)
			maxB, minB := support(load, b, d)
			// Gap along d (positive means separated on this axis).
			gap := minB - maxA
			if g2 := minA - maxB; g2 > gap {
				gap = g2
			}
			if first || gap > best {
				best = gap
				first = false
			}
		}
		return best, best <= 0
	}

	wantSep := make([]float32, pairs)
	wantHit := make([]uint32, pairs)
	for i, pr := range pair {
		s, hit := sepOf(func(j int) float32 { return ov[j] }, pr[0], pr[1])
		wantSep[i] = s
		if hit {
			wantHit[i] = 1
		}
	}

	worker := func(x *rt.Ctx) {
		x.ParallelFor(pairs, func(task int) {
			f := openFrame(x, 8)
			x.Gather(w(pairIdx, 2*task))
			x.Gather(w(pairIdx, 2*task+1))
			g := gathered(x.Sync())
			a, b := int(g.word()), int(g.word())
			// sepOf's loads in its order: per direction, both objects'
			// vertices, each word behind one cycle of dot-product work.
			for range dirs {
				for _, obj := range [2]int{a, b} {
					for j := obj * verts * 3; j < (obj+1)*verts*3; j++ {
						x.Work(1)
						x.Gather(w(objA, j))
					}
				}
			}
			g = gathered(x.Sync())
			s, hit := sepOf(func(int) float32 { return g.f32() }, a, b)
			x.StoreF32(w(outSep, task), s)
			var h uint32
			if hit {
				h = 1
			}
			x.Store(w(outHit, task), h)
			x.FlushIfSWcc(w(outSep, task), 4)
			x.FlushIfSWcc(w(outHit, task), 4)
			f.close()
		})
	}

	verify := func(r *rt.Runtime) error {
		if err := verifyF32(r, "gjk.sep", uint64(outSep), func(i int) float32 { return r.ReadF32(w(outSep, i)) }, wantSep); err != nil {
			return err
		}
		for i := range wantHit {
			if got := r.ReadWord(w(outHit, i)); got != wantHit[i] {
				return errf("gjk: pair %d hit=%d, want %d", i, got, wantHit[i])
			}
		}
		return nil
	}
	return &Instance{Name: "gjk", CodeBytes: 4 << 10, Worker: worker, Verify: verify}, nil
}
