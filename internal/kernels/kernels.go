// Package kernels implements the paper's eight benchmark kernels (§4.1) as
// barrier-synchronized task-queue programs over the simulated memory
// system: conjugate gradient (cg), dense matrix multiply (dmm), collision
// detection (gjk), 2D stencil (heat), k-means clustering (kmeans), medical
// image reconstruction (mri), edge detection (sobel), and 3D stencil
// (stencil).
//
// Every kernel computes real values and verifies its output against a
// sequential golden implementation, in all three memory models. Coherence
// behaviour follows the paper's variants (§4.1): SWcc variants issue
// explicit flush/invalidate instructions at task boundaries; HWcc variants
// issue none; Cohesion variants keep them only for data placed in the
// SWcc domain. Kernels express this uniformly through the runtime's
// FlushIfSWcc/InvIfSWcc helpers and by choosing, per data structure,
// between the incoherent heap (software-managed under Cohesion) and the
// coherent heap (hardware-managed under Cohesion).
//
// Kernels gather the loads whose addresses they know (rt.Ctx.Gather) and
// Sync where a store's value or a load's address needs them. They read a
// batch back in gathering order, keeping a load-by-load version's float32
// expressions and evaluation order.
//
// Every product that feeds an add or a subtract is written float32(a*b)
// (float64 in float64 code). The Go spec lets a compiler fuse x*y + z into
// one multiply-add that rounds once; arm64, ppc64le, s390x and riscv64 do
// so on their own, which would move the golden fingerprints on those
// hosts. An explicit conversion rounds the product and forbids the fusion.
package kernels

import (
	"fmt"
	"math"
	"sort"

	"cohesion/internal/addr"
	"cohesion/internal/rt"
)

// Params scales a kernel instance. Scale 1 is test-sized; the experiment
// harness uses larger scales. Seed feeds the workload generators.
type Params struct {
	Scale int
	Seed  int64
}

// Instance is a ready-to-run kernel: the per-worker program plus its
// output check.
type Instance struct {
	Name      string
	CodeBytes int // instruction footprint driving L1I/instruction traffic
	Worker    func(x *rt.Ctx)
	Verify    func(r *rt.Runtime) error
}

// Builder constructs a kernel instance against a runtime, allocating and
// initializing its data set.
type Builder func(r *rt.Runtime, p Params) (*Instance, error)

// Registry maps kernel names to builders, in the paper's naming.
var Registry = map[string]Builder{
	"cg":      BuildCG,
	"dmm":     BuildDMM,
	"gjk":     BuildGJK,
	"heat":    BuildHeat,
	"kmeans":  BuildKMeans,
	"mri":     BuildMRI,
	"sobel":   BuildSobel,
	"stencil": BuildStencil,
}

// Names returns the kernel names in the paper's (alphabetical) order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for n := range Registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build looks up and runs a builder.
func Build(name string, r *rt.Runtime, p Params) (*Instance, error) {
	b, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("kernels: unknown kernel %q", name)
	}
	if p.Scale < 1 {
		p.Scale = 1
	}
	return b(r, p)
}

// frame models a task's activation record on the worker's private stack:
// live registers spill at task entry and restore at task exit. This is
// where the paper's HWcc directory spends a noticeable share of its
// entries ("on average, the stack alone only represents 15% of the
// directory resources", §4.3); under Cohesion the stacks fall in a
// coarse-grain SWcc region and never touch the directory.
type frame struct {
	x     *rt.Ctx
	base  addr.Addr
	words int
}

// openFrame spills words live registers to a fresh stack frame.
func openFrame(x *rt.Ctx, words int) frame {
	base := x.StackAlloc(words)
	for i := 0; i < words; i++ {
		x.Store(base+addr.Addr(4*i), uint32(i))
	}
	return frame{x: x, base: base, words: words}
}

// close restores the spilled registers and pops the frame.
func (f frame) close() {
	for i := 0; i < f.words; i++ {
		f.x.Gather(f.base + addr.Addr(4*i))
	}
	f.x.Sync()
	f.x.FrameReset()
}

// gathered reads a Sync's values in the order they were gathered.
type gathered []uint32

// word pops the next value.
func (g *gathered) word() uint32 {
	v := (*g)[0]
	*g = (*g)[1:]
	return v
}

// f32 pops the next value as a float32.
func (g *gathered) f32() float32 { return math.Float32frombits(g.word()) }

// approxEqual compares float32 results with a relative/absolute tolerance
// wide enough for benign re-association differences but tight enough to
// catch coherence bugs (which corrupt values wholesale).
func approxEqual(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb > m {
		m = bb
	} else if -bb > m {
		m = -bb
	}
	return d <= float32(1e-3*m)+1e-5
}

func verifyF32(r *rt.Runtime, name string, base uint64, got func(i int) float32, want []float32) error {
	for i, w := range want {
		g := got(i)
		if !approxEqual(g, w) {
			return fmt.Errorf("%s: element %d = %v, want %v", name, i, g, w)
		}
	}
	_ = base
	return nil
}
