package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cohesion"
	"cohesion/internal/pool"
	"cohesion/internal/snapshot"
	"cohesion/internal/stress"
)

// sizes fixes how much work each workload does. They are constants of
// the benchmark, not flags: every run of a workload does the same work
// per round. bench_test.go swaps in a tiny set.
type sizes struct {
	setupReps int // set-up repetitions where set-up is its own step

	simClusters int
	sim         []kernelScale // × the three modes

	figs cohesion.ExpParams // template; Seed is the run's seed

	serveClusters, serveScale int
	serveHistory              int // finished jobs in the state directory a set-up restart recovers
	serveBare                 int // jobs the traced run replays without checkpoints

	fuzzRound int           // programs per round; a multiple of 6 covers every mode × faults kind
	fuzz      stress.Config // template; Seed, Mode and faults are set per program

	resumeClusters int
	resume         []kernelScale // paired with resumeModes

	benchtime string // testing.Benchmark time per unit probe
}

type kernelScale struct {
	kernel string
	scale  int
}

// size is the full benchmark, sized so that every round of a workload
// takes at most about three seconds on a 2-CPU host and a 10-second run
// measures several rounds.
var size = sizes{
	setupReps:     5,
	simClusters:   8,
	sim:           []kernelScale{{"cg", 12}, {"heat", 10}, {"stencil", 5}, {"dmm", 5}},
	figs:          cohesion.ExpParams{Scale: 2},
	serveClusters: 2, serveScale: 2, serveHistory: 240, serveBare: 48,
	fuzzRound:      60,
	resumeClusters: 8,
	resume:         []kernelScale{{"heat", 8}, {"cg", 12}, {"stencil", 4}},
	benchtime:      "100ms",
}

var modes = []cohesion.Mode{cohesion.SWcc, cohesion.HWcc, cohesion.Cohesion}

// simWL is the steady-state event loop: serial simulations of four
// kernels under each memory model on a 64-core machine, big enough that
// the event loop dominates set-up and finalize. Its set-up is the
// machine assembly and workload construction of a round (Σ Prepare),
// taken once per round.
type simWL struct{}

func (simWL) run(p *pass) error {
	p.rounds(func(r int) {
		var prepare time.Duration
		index := 0
		for _, ks := range size.sim {
			for _, m := range modes {
				kind := ks.kernel + "/" + m.String()
				rc := cohesion.RunConfig{Machine: cohesion.ScaledConfig(size.simClusters).WithMode(m),
					Kernel: ks.kernel, Scale: ks.scale, Seed: p.seed, Verify: true}
				s := p.tr.start(p.root, 0, kind)
				o := op{kind: kind, round: r, index: index, start: p.now()}
				index++
				t0 := time.Now()
				var pr *cohesion.Prepared
				var res *cohesion.Result
				var err error
				d := timed(s, "cohesion.Prepare", func() { pr, err = cohesion.Prepare(rc) })
				prepare += d
				p.sample("cohesion.prepare_ms", ms(d))
				if err == nil {
					d = timed(s, "Prepared.Simulate", func() { err = pr.Simulate(ctx) })
					p.sample("cohesion.simulate_ms", ms(d))
					if err == nil {
						d = timed(s, "Prepared.Finalize", func() { res, err = pr.Finalize() })
						p.sample("cohesion.finalize_ms", ms(d))
					}
				}
				o.dur, o.err = time.Since(t0), err
				s.stop()
				if err == nil {
					o.c = runCounts(&res.Stats, res.MemFingerprint)
				}
				p.record(o)
			}
		}
		p.setups = append(p.setups, prepare)
	})
	var opMs float64
	for _, o := range p.ops {
		opMs += ms(o.dur)
	}
	simMs := sum(p.samples["cohesion.simulate_ms"])
	p.setValue("cohesion.simulate_pct", 100*ratio(simMs, opMs))
	p.setValue("cohesion.ns_per_event", 1e6*ratio(simMs, p.events()))
	return nil
}

// figCalls are the library calls behind cohesion-experiments -fig all,
// in its order.
var figCalls = []struct {
	name, fn string
	call     func(cohesion.ExpParams) (any, error)
}{
	{"fig2", "cohesion.Fig2", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig2(e) }},
	{"fig3", "cohesion.Fig3", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig3(e) }},
	{"fig8", "cohesion.Fig8", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig8(e) }},
	{"fig9a", "cohesion.Fig9Sweep(HWcc)", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig9Sweep(e, cohesion.HWcc) }},
	{"fig9b", "cohesion.Fig9Sweep(Cohesion)", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig9Sweep(e, cohesion.Cohesion) }},
	{"fig9c", "cohesion.Fig9c", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig9c(e) }},
	{"fig10", "cohesion.Fig10", func(e cohesion.ExpParams) (any, error) { return cohesion.Fig10(e) }},
	{"summary", "cohesion.HeadlineSummary", func(e cohesion.ExpParams) (any, error) { return cohesion.HeadlineSummary(e) }},
}

// figsWL is what a paper reproducer runs: every figure of the evaluation,
// fanned out over two goroutines. Its ~300 medium runs, 8 KB L2s and
// sparse-directory sweeps weigh set-up, finalize, directory evictions and
// fan-out far more than sim does. The figure calls hide each cell's
// set-up, so the set-up step times Prepare of one cell per kernel at the
// figures' machine size.
type figsWL struct{}

func (figsWL) run(p *pass) error {
	e := size.figs
	e.Parallel, e.Verify = 2, true
	if e.Clusters == 0 {
		e.Clusters = 8
	}
	kernels := e.Kernels
	if len(kernels) == 0 {
		kernels = cohesion.KernelNames()
	}
	for rep := 0; rep < size.setupReps; rep++ {
		s := p.tr.start(p.root, 0, "setup")
		var prepare time.Duration
		for _, k := range kernels {
			var pr *cohesion.Prepared
			var err error
			prepare += timed(s, "cohesion.Prepare", func() {
				pr, err = cohesion.Prepare(cohesion.RunConfig{Machine: cohesion.ScaledConfig(e.Clusters),
					Kernel: k, Scale: e.Scale, Seed: p.seed, Workers: 2 * e.Clusters, Verify: true})
			})
			if err == nil {
				_, err = pr.Run(ctx) // untimed; ends the machine's core coroutines
			}
			if err != nil {
				return fmt.Errorf("figs set-up: %w", err)
			}
		}
		s.stop()
		p.setups = append(p.setups, prepare)
	}
	e.Seed = p.seed
	p.rounds(func(r int) {
		for i, f := range figCalls {
			s := p.tr.start(p.root, 0, f.name)
			var rows any
			var err error
			start := p.now()
			d := timed(s, f.fn, func() { rows, err = f.call(e) })
			s.stop()
			o := op{kind: f.name, round: r, index: i, start: start, dur: d, err: err}
			if err == nil {
				o.c, o.err = figCounts(rows)
			}
			p.sample("figs."+f.name+"_s", d.Seconds())
			p.record(o)
		}
	})
	return nil
}

// figCounts checks a figure's rows and sums the model counts they expose.
// A failed cell already makes the figure call return an error.
func figCounts(rows any) (counts, error) {
	c := counts{fp: digest(fmt.Sprintf("%v", rows))}
	n := 0
	switch rows := rows.(type) {
	case []cohesion.MessageBreakdown:
		for _, r := range rows {
			c.l2Messages += r.Total
		}
		n = len(rows)
	case []cohesion.DirSweepPoint:
		for _, r := range rows {
			c.cycles += r.Cycles
		}
		n = len(rows)
	case []cohesion.RuntimeRow:
		for _, r := range rows {
			c.cycles += r.Cycles
		}
		n = len(rows)
	case []cohesion.FlushEfficiency:
		n = len(rows)
	case []cohesion.OccupancyRow:
		n = len(rows)
	case *cohesion.Summary:
		if rows != nil && rows.MessageReduction > 0 {
			n = 1
		}
	}
	if n == 0 {
		return c, errors.New("figure returned no rows")
	}
	return c, nil
}

var fuzzModes = []string{"cohesion", "hwcc", "swcc"} // cohesion-fuzz's rotation

// fuzzPool is how many programs the fuzz workload draws from: iterations
// 0 to fuzzPool-1 of a cohesion-fuzz campaign with seed 1, every one of
// which passes the oracle. Fresh seeds would be a fuzz campaign, which
// finds real protocol failures now and then (iteration 1752 of that
// campaign is one); a benchmark must not fail, so --seed only rotates the
// order in which rounds visit the pool.
const fuzzPool = 1200

// fuzzConfig derives the configuration of program j of round r, the way
// cohesion-fuzz derives iteration i's, with fault injection on odd
// iterations.
func fuzzConfig(seed int64, r, j int) stress.Config {
	rounds := fuzzPool / size.fuzzRound
	i := ((int(seed%int64(rounds))+rounds+r)%rounds)*size.fuzzRound + j
	c := size.fuzz
	c.Seed = 1 + int64(i)*1_000_003
	c.Mode = fuzzModes[i%len(fuzzModes)]
	c.Faults = i%2 == 1
	c.FaultSeed = 1 + int64(i)
	return c
}

// fuzzWL is the only workload that runs the oracle, the stress generator
// and fault injection: oracle-checked random programs on tiny machines
// (32-line L2, 256-entry directory), where per-run set-up dominates. Its
// set-up step generates a round's programs and builds their machines.
type fuzzWL struct{}

func (fuzzWL) run(p *pass) error {
	n := size.fuzzRound
	for rep := 0; rep < size.setupReps; rep++ {
		err := p.setup(func() error {
			for i := 0; i < n; i++ {
				prog, err := stress.Generate(fuzzConfig(p.seed, 0, i))
				if err != nil {
					return err
				}
				if _, err := stress.BuildMachine(prog.Cfg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("fuzz set-up: %w", err)
		}
	}
	ln := newLanes(2)
	p.rounds(func(r int) {
		pool.Do(n, 2, func(j int) {
			lane := ln.get()
			defer ln.put(lane)
			cfg := fuzzConfig(p.seed, r, j)
			kind, runMetric := cfg.Mode, "stress.run_ms"
			if cfg.Faults {
				kind, runMetric = cfg.Mode+"+faults", "stress.run_faults_ms"
			}
			s := p.tr.start(p.root, lane, kind)
			o := op{kind: kind, round: r, index: j, start: p.now()}
			t0 := time.Now()
			var prog stress.Program
			var err error
			d := timed(s, "stress.Generate", func() { prog, err = stress.Generate(cfg) })
			p.sample("stress.generate_ms", ms(d))
			if err == nil {
				var res stress.Result
				d = timed(s, "stress.RunProgramOpts", func() { res = stress.RunProgramOpts(prog, stress.RunOpts{}) })
				p.sample(runMetric, ms(d))
				err = res.Err
				o.c = counts{events: res.Events, cycles: res.Cycles, oracleChecks: res.Checks, fp: res.Fingerprint}
			}
			o.dur, o.err = time.Since(t0), err
			s.stop()
			p.record(o)
		})
	})
	runMs := sum(p.samples["stress.run_ms"]) + sum(p.samples["stress.run_faults_ms"])
	p.setValue("cohesion.ns_per_event", 1e6*ratio(runMs, p.events()))
	return nil
}

// resumeWL is the read side of the snapshot layer: resuming interrupted
// runs, each resume loading a snapshot, replaying from event 0 and
// verifying the layer digests, checked bit-identical against a
// straight-through run. Its set-up step writes the checkpoints, at 1/3
// and 2/3 of each run's events.
type resumeWL struct {
	refs  []resumeRef // straight-through references, computed once, untimed
	paths []string    // checkpoint files, in op order
}

type resumeRef struct {
	rc       cohesion.RunConfig
	res      *cohesion.Result
	straight time.Duration
}

var resumeModes = []cohesion.Mode{cohesion.Cohesion, cohesion.HWcc, cohesion.SWcc}

// afterResumeSetup, when set by a test, runs between the set-up step and
// the measured phase with the checkpoint files.
var afterResumeSetup func(paths []string)

func (w *resumeWL) run(p *pass) error {
	if w.refs == nil {
		for i, ks := range size.resume {
			rc := cohesion.RunConfig{Machine: cohesion.ScaledConfig(size.resumeClusters).WithMode(resumeModes[i]),
				Kernel: ks.kernel, Scale: ks.scale, Seed: p.seed, Verify: true}
			t0 := time.Now()
			res, err := cohesion.RunCtx(ctx, rc)
			if err != nil {
				return fmt.Errorf("resume reference: %w", err)
			}
			w.refs = append(w.refs, resumeRef{rc: rc, res: res, straight: time.Since(t0)})
		}
	}
	for rep := 0; rep < size.setupReps; rep++ {
		w.paths = w.paths[:0]
		err := p.setup(func() error {
			for i, ref := range w.refs {
				for k := uint64(1); k <= 2; k++ {
					path := filepath.Join(p.work, fmt.Sprintf("resume-%d-%d.ckpt", i, k))
					rc := ref.rc
					rc.Limits.MaxEvents = ref.res.Stats.Events * k / 3
					_, err := cohesion.RunWithCheckpoints(ctx, rc, cohesion.CheckpointConfig{Path: path})
					if !errors.Is(err, cohesion.ErrBudgetExhausted) {
						return fmt.Errorf("interrupting %s at %d events: %v", rc.Kernel, rc.Limits.MaxEvents, err)
					}
					w.paths = append(w.paths, path)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("resume set-up: %w", err)
		}
	}
	if afterResumeSetup != nil {
		afterResumeSetup(w.paths)
	}
	p.rounds(func(r int) {
		for i, path := range w.paths {
			ref := w.refs[i/2]
			kind := fmt.Sprintf("%s/%v@%d/3", ref.rc.Kernel, ref.rc.Machine.Mode, i%2+1)
			s := p.tr.start(p.root, 0, kind)
			var res *cohesion.Result
			var err error
			start := p.now()
			d := timed(s, "cohesion.ResumeRun", func() { res, _, err = cohesion.ResumeRun(ctx, path, cohesion.ResumeOptions{}) })
			s.stop()
			o := op{kind: kind, round: r, index: i, start: start, dur: d, err: err}
			if err == nil {
				o.err = sameRun(res, ref.res)
				o.c = runCounts(&res.Stats, res.MemFingerprint)
			}
			p.sample("resume.resume_ms", ms(d))
			p.sample("resume.straight_ms", ms(ref.straight))
			p.record(o)
		}
	})
	resumeMs := sum(p.samples["resume.resume_ms"])
	p.setValue("resume.overhead_pct", 100*(ratio(resumeMs, sum(p.samples["resume.straight_ms"]))-1))
	p.setValue("cohesion.ns_per_event", 1e6*ratio(resumeMs, p.events()))
	return nil
}

// sameRun checks that a resumed run is bit-identical to the
// straight-through one.
func sameRun(got, want *cohesion.Result) error {
	if got.MemFingerprint != want.MemFingerprint || got.Cycles() != want.Cycles() ||
		got.Stats.Events != want.Stats.Events || got.TotalMessages() != want.TotalMessages() {
		return fmt.Errorf("resumed %s differs from the straight run: fingerprint %#x/%#x cycles %d/%d events %d/%d messages %d/%d",
			got.Kernel, got.MemFingerprint, want.MemFingerprint, got.Cycles(), want.Cycles(),
			got.Stats.Events, want.Stats.Events, got.TotalMessages(), want.TotalMessages())
	}
	return nil
}

// layers times the snapshot layer directly on the checkpoint files.
func (w *resumeWL) layers(p *pass) error {
	for _, path := range w.paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		p.sample("snapshot.mb", float64(st.Size())/(1<<20))
		var snap cohesion.RunSnapshot
		var env snapshot.Envelope
		d := timed(p.root, "snapshot.LoadRecover", func() { env, _, err = snapshot.LoadRecover(path, snapshot.KindRun, &snap) })
		if err != nil {
			return err
		}
		p.sample("snapshot.load_ms", ms(d))
		d = timed(p.root, "snapshot.WriteAtomic", func() { err = snapshot.WriteAtomic(path+".copy", snapshot.KindRun, env.Seq, snap) })
		if err != nil {
			return err
		}
		p.sample("snapshot.write_ms", ms(d))
	}
	return nil
}
