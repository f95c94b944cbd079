package rt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/machine"
	"cohesion/internal/runctl"
	"cohesion/internal/simerr"
)

// Differential fuzzing: a randomly generated bulk-synchronous program must
// produce a bit-identical memory image under SWcc, HWcc, and Cohesion, and
// match a host-side golden model. Any divergence is a coherence bug in one
// of the three protocol stacks.
//
// The generated programs follow the Task Centric discipline the paper's
// benchmarks use (ping-pong buffers, as in heat/stencil): phase ph writes
// task-disjoint blocks of buffer ph%2 and reads arbitrary words of the
// other buffer (produced last phase), invalidating read lines lazily and
// flushing written blocks eagerly. Reads never race same-phase writes —
// the discipline the model requires — but block boundaries, line sharing
// between adjacent blocks, and cross-cluster read sets are all random.

type fuzzProgram struct {
	phases  int
	tasks   int // per phase
	words   int // per buffer
	workers int
	seed    int64
}

type fuzzOp struct {
	write bool
	word  int
	val   uint32
}

type fuzzPlan struct {
	ops    [][][]fuzzOp // [phase][task] -> op list
	golden [2][]uint32  // final contents of both buffers
}

func buildPlan(p fuzzProgram) *fuzzPlan {
	rng := rand.New(rand.NewSource(p.seed))
	var mem [2][]uint32
	mem[0] = make([]uint32, p.words)
	mem[1] = make([]uint32, p.words)
	plan := &fuzzPlan{}
	blockWords := p.words / p.tasks
	for ph := 0; ph < p.phases; ph++ {
		wbuf, rbuf := ph%2, (ph+1)%2
		phaseOps := make([][]fuzzOp, p.tasks)
		staged := map[int]uint32{}
		for task := 0; task < p.tasks; task++ {
			lo := task * blockWords
			n := 4 + rng.Intn(8)
			var ops []fuzzOp
			acc := uint32(ph*1000 + task)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					w := rng.Intn(p.words) // read the other buffer, anywhere
					ops = append(ops, fuzzOp{write: false, word: w})
					acc = acc*31 + mem[rbuf][w]
				} else {
					w := lo + rng.Intn(blockWords) // write own block
					val := acc*2654435761 + uint32(i) + 1
					ops = append(ops, fuzzOp{write: true, word: w, val: val})
					staged[w] = val
				}
			}
			phaseOps[task] = ops
		}
		for w, v := range staged {
			mem[wbuf][w] = v
		}
		plan.ops = append(plan.ops, phaseOps)
	}
	plan.golden[0] = mem[0]
	plan.golden[1] = mem[1]
	return plan
}

// fuzzWorker runs the plan's phases; migrate, when non-nil, is called by
// worker 0 at the given phase boundary (the mid-run transition variant).
func fuzzWorker(p fuzzProgram, plan *fuzzPlan, buf [2]addr.Addr, wk int,
	migrateAt int, migrate func(x *Ctx)) func(x *Ctx) {
	blockWords := p.words / p.tasks
	wordAddr := func(b, w int) addr.Addr { return buf[b] + addr.Addr(4*w) }
	return func(x *Ctx) {
		for ph := 0; ph < p.phases; ph++ {
			if migrate != nil && ph == migrateAt {
				if wk == 0 {
					migrate(x)
				}
				x.Barrier()
			}
			wbuf, rbuf := ph%2, (ph+1)%2
			phaseOps := plan.ops[ph]
			x.ParallelFor(p.tasks, func(task int) {
				lo := task * blockWords
				// Lazy invalidation of the read buffer (stable this phase).
				x.InvIfSWcc(buf[rbuf], uint64(4*p.words))
				for _, op := range phaseOps[task] {
					if op.write {
						x.Store(wordAddr(wbuf, op.word), op.val)
					} else {
						_ = x.Load(wordAddr(rbuf, op.word))
					}
				}
				// Eager writeback of the task's block of the write buffer.
				x.FlushIfSWcc(wordAddr(wbuf, lo), uint64(4*blockWords))
			})
		}
	}
}

func checkImage(t *testing.T, label string, m *machine.Machine, buf [2]addr.Addr, plan *fuzzPlan, words int) {
	t.Helper()
	for b := 0; b < 2; b++ {
		for w := 0; w < words; w++ {
			got := m.Store.ReadWord(buf[b] + addr.Addr(4*w))
			if got != plan.golden[b][w] {
				t.Fatalf("%s: buffer %d word %d = %#x, want %#x", label, b, w, got, plan.golden[b][w])
			}
		}
	}
}

// fuzzMachine builds the machine, runtime and ping-pong buffers a
// generated program runs on.
func fuzzMachine(t *testing.T, p fuzzProgram, mode config.Mode) (*machine.Machine, *Runtime, [2]addr.Addr) {
	t.Helper()
	cfg := config.Scaled(2).WithMode(mode)
	if mode != config.SWcc {
		cfg = cfg.WithDirectory(config.DirInfinite, 0, 0)
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(m, p.workers)
	if err != nil {
		t.Fatal(err)
	}
	buf := [2]addr.Addr{
		r.CohMalloc(uint64(4 * p.words)),
		r.CohMalloc(uint64(4 * p.words)),
	}
	return m, r, buf
}

func runFuzz(t *testing.T, p fuzzProgram, plan *fuzzPlan, mode config.Mode) {
	t.Helper()
	m, r, buf := fuzzMachine(t, p, mode)
	for wk := 0; wk < p.workers; wk++ {
		r.Spawn(wk*2, 1024, fuzzWorker(p, plan, buf, wk, -1, nil))
	}
	if err := m.Simulate(500_000_000); err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("%v invariants: %v", mode, err)
	}
	m.DrainToMemory()
	checkImage(t, mode.String(), m, buf, plan, p.words)
}

func TestDifferentialFuzzAcrossModes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			p := fuzzProgram{phases: 6, tasks: 8, words: 256, workers: 6, seed: seed}
			plan := buildPlan(p)
			for _, mode := range []config.Mode{config.SWcc, config.HWcc, config.Cohesion} {
				runFuzz(t, p, plan, mode)
			}
		})
	}
}

// The same random program with the whole data set migrated to HWcc
// halfway through the run: the coherence instructions become no-ops for
// the second half and the image must still match the golden model.
func TestDifferentialFuzzWithMidRunTransition(t *testing.T) {
	p := fuzzProgram{phases: 6, tasks: 8, words: 256, workers: 6, seed: 42}
	plan := buildPlan(p)

	m, r, buf := fuzzMachine(t, p, config.Cohesion)
	migrate := func(x *Ctx) {
		x.CohHWccRegion(buf[0], uint64(4*p.words))
		x.CohHWccRegion(buf[1], uint64(4*p.words))
	}
	for wk := 0; wk < p.workers; wk++ {
		r.Spawn(wk*2, 1024, fuzzWorker(p, plan, buf, wk, p.phases/2, migrate))
	}
	if err := m.Simulate(500_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.DrainToMemory()
	checkImage(t, "mid-run transition", m, buf, plan, p.words)
	if m.Run.TransitionsToHW == 0 {
		t.Fatal("mid-run migration never happened")
	}
}

// withLongReads copies a plan and gives about a third of its tasks an
// extra run of 65–160 consecutive reads, so that a gathered batch can hold
// more loads than the core's 64-operation queue. Reads change no memory,
// so the golden images stand.
func withLongReads(p fuzzProgram, plan *fuzzPlan, rng *rand.Rand) *fuzzPlan {
	out := &fuzzPlan{golden: plan.golden}
	for _, phaseOps := range plan.ops {
		tasks := make([][]fuzzOp, len(phaseOps))
		for task, ops := range phaseOps {
			ops = append([]fuzzOp(nil), ops...)
			if rng.Intn(3) == 0 {
				run := make([]fuzzOp, 65+rng.Intn(96))
				for i := range run {
					run[i] = fuzzOp{word: rng.Intn(p.words)}
				}
				at := rng.Intn(len(ops) + 1)
				ops = append(ops[:at], append(run, ops[at:]...)...)
			}
			tasks[task] = ops
		}
		out.ops = append(out.ops, tasks)
	}
	return out
}

// randomBatches splits every task's op list into consecutive batches of
// 1–160 ops. It reports whether some batch holds 65 consecutive reads: a
// run that long fills the core's queue with gathered loads, so one of
// them must take DoAsync's queue-full path and issue synchronously.
func randomBatches(plan *fuzzPlan, rng *rand.Rand) (batches [][][]int, queueFull bool) {
	for _, phaseOps := range plan.ops {
		tasks := make([][]int, len(phaseOps))
		for task, ops := range phaseOps {
			for at := 0; at < len(ops); {
				n := min(1+rng.Intn(160), len(ops)-at)
				reads := 0 // consecutive, within this batch
				for _, op := range ops[at : at+n] {
					reads++
					if op.write {
						reads = 0
					}
					queueFull = queueFull || reads >= 65
				}
				tasks[task] = append(tasks[task], n)
				at += n
			}
		}
		batches = append(batches, tasks)
	}
	return batches, queueFull
}

// readRun is one run of a plan that records every value it reads.
type readRun struct {
	m      *machine.Machine
	buf    [2]addr.Addr
	reads  [][][]uint32 // [phase][task] -> values read, in program order
	err    error
	parked int // workers inside Sync when the run stopped
	exited int // worker bodies that returned or unwound
}

// runReads runs the plan under mode on a fresh machine. With batches nil
// every read is a Load; otherwise the reads of each batch are gathered and
// collected with one Sync. Writes are Stores in both cases.
func runReads(t *testing.T, p fuzzProgram, plan *fuzzPlan, mode config.Mode, batches [][][]int, lim runctl.Limits) *readRun {
	t.Helper()
	m, r, buf := fuzzMachine(t, p, mode)
	run := &readRun{m: m, buf: buf, reads: make([][][]uint32, p.phases)}
	for ph := range run.reads {
		run.reads[ph] = make([][]uint32, p.tasks)
	}
	blockWords := p.words / p.tasks
	wordAddr := func(b, w int) addr.Addr { return buf[b] + addr.Addr(4*w) }
	for wk := 0; wk < p.workers; wk++ {
		r.Spawn(wk*2, 1024, func(x *Ctx) {
			defer func() { run.exited++ }()
			for ph := 0; ph < p.phases; ph++ {
				wbuf, rbuf := ph%2, (ph+1)%2
				x.ParallelFor(p.tasks, func(task int) {
					ops := plan.ops[ph][task]
					x.InvIfSWcc(buf[rbuf], uint64(4*p.words))
					issue := func(op fuzzOp, read func(addr.Addr)) {
						if op.write {
							x.Store(wordAddr(wbuf, op.word), op.val)
						} else {
							read(wordAddr(rbuf, op.word))
						}
					}
					got := &run.reads[ph][task]
					if batches == nil {
						for _, op := range ops {
							issue(op, func(a addr.Addr) { *got = append(*got, x.Load(a)) })
						}
					} else {
						for _, n := range batches[ph][task] {
							for _, op := range ops[:n] {
								issue(op, x.Gather)
							}
							ops = ops[n:]
							run.parked++
							*got = append(*got, x.Sync()...)
							run.parked--
						}
					}
					x.FlushIfSWcc(wordAddr(wbuf, task*blockWords), uint64(4*blockWords))
				})
			}
		})
	}
	run.err = m.SimulateCtx(context.Background(), 500_000_000, lim)
	return run
}

// TestGatherMatchesLoad runs each generated program twice per mode: once
// reading every word with Load, and once gathering its reads into batches
// of random length, some past the core's 64-operation queue. Gathering
// may only change how often the program coroutine resumes: the machine
// must execute the same operations at the same cycles, so read values,
// events, cycles, message counts and the memory image must all be equal.
// Budget-ended runs of the gathered variant, stopped while workers are
// parked in Sync, must return the budget error with every worker unwound.
func TestGatherMatchesLoad(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			p := fuzzProgram{phases: 6, tasks: 8, words: 256, workers: 6, seed: seed}
			rng := rand.New(rand.NewSource(seed + 100))
			plan := withLongReads(p, buildPlan(p), rng)
			batches, queueFull := randomBatches(plan, rng)
			if !queueFull {
				t.Fatal("no batch gathers 65 consecutive reads: the queue-full path goes untested")
			}
			parked := 0
			for _, mode := range []config.Mode{config.SWcc, config.HWcc, config.Cohesion} {
				loaded := runReads(t, p, plan, mode, nil, runctl.Limits{})
				gathered := runReads(t, p, plan, mode, batches, runctl.Limits{})
				for _, run := range []*readRun{loaded, gathered} {
					if run.err != nil {
						t.Fatalf("%v: %v", mode, run.err)
					}
					run.m.DrainToMemory()
					checkImage(t, mode.String(), run.m, run.buf, plan, p.words)
				}
				lr, gr := loaded.m.Run, gathered.m.Run
				if lr.Events != gr.Events || lr.Cycles != gr.Cycles || lr.Messages != gr.Messages {
					t.Fatalf("%v: gathering moved the run: events %d vs %d, cycles %d vs %d, messages %v vs %v",
						mode, lr.Events, gr.Events, lr.Cycles, gr.Cycles, lr.Messages, gr.Messages)
				}
				if !reflect.DeepEqual(loaded.reads, gathered.reads) {
					t.Fatalf("%v: gathered loads read different values", mode)
				}
				if gr.Resumes >= lr.Resumes {
					t.Fatalf("%v: gathering did not cut resumes: %d vs %d", mode, gr.Resumes, lr.Resumes)
				}

				for _, div := range []uint64{4, 2} {
					stopped := runReads(t, p, plan, mode, batches, runctl.Limits{MaxEvents: gr.Events / div})
					if !errors.Is(stopped.err, simerr.ErrBudgetExhausted) {
						t.Fatalf("%v at 1/%d of the events: %v, want the budget error", mode, div, stopped.err)
					}
					if stopped.exited != p.workers {
						t.Fatalf("%v at 1/%d of the events: %d of %d workers unwound", mode, div, stopped.exited, p.workers)
					}
					parked += stopped.parked
				}
			}
			if parked == 0 {
				t.Fatal("no budget stop caught a worker parked in Sync")
			}
		})
	}
}
