// Command cohesion-fuzz stress-tests the coherence protocol with seeded
// random task programs, watched online by the coherence oracle. On the
// first failure it writes a self-contained repro file (config, seeds, op
// schedule, protocol trace ring), shrinks the failing program to a
// near-minimal schedule, and exits nonzero.
//
// Examples:
//
//	cohesion-fuzz -iters 50 -seed 1                 # fuzz 50 programs
//	cohesion-fuzz -iters 50 -seed 1 -faults         # compose with fault injection
//	cohesion-fuzz -mode cohesion -corrupt           # planted corruption must be caught
//	cohesion-fuzz -replay repro.json                # re-run a saved failure
//	cohesion-fuzz -replay repro.json -shrink=false  # replay without shrinking
//	cohesion-fuzz -iters 500 -checkpoint fuzz.ckpt  # interruptible batch
//	cohesion-fuzz -iters 500 -checkpoint fuzz.ckpt -resume
//	cohesion-fuzz -checkpoint-stress 3              # verify checkpoint/restore determinism
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"cohesion/internal/pool"
	"cohesion/internal/simerr"
	"cohesion/internal/snapshot"
	"cohesion/internal/stress"
	"cohesion/internal/trace"
)

func main() {
	var (
		iters     = flag.Int("iters", 20, "number of random programs to run")
		seed      = flag.Int64("seed", 1, "base program seed (each iteration derives its own)")
		mode      = flag.String("mode", "", "memory model: swcc, hwcc, cohesion (default: rotate through all three)")
		clusters  = flag.Int("clusters", 0, "number of 8-core clusters (0 = default)")
		lines     = flag.Int("lines", 0, "number of shared fuzzed lines (0 = default)")
		ops       = flag.Int("ops", 0, "ops per core schedule (0 = default)")
		workers   = flag.Int("workers", 0, "worker cores per cluster (0 = default)")
		faults    = flag.Bool("faults", false, "compose runs with deterministic fault injection")
		faultSeed = flag.Int64("fault-seed", 1, "base fault plan seed")
		corrupt   = flag.Bool("corrupt", false, "plant a memory-corruption motif the oracle must catch")
		traceN    = flag.Int("trace-ring", 0, "protocol trace ring capacity captured into repros (0 = default)")
		traceOn   = flag.Bool("trace", false, "on failure, re-run the failing program with a structured trace and write it to -trace-out")
		traceOut  = flag.String("trace-out", "cohesion-fuzz-trace.json", "failure trace output file; .json emits Chrome trace-event format, anything else plain text")
		edges     = flag.Bool("edges", false, "aggregate protocol-transition edge coverage across all iterations and print the report")
		out       = flag.String("out", "cohesion-fuzz-repro.json", "repro file written on failure")
		replay    = flag.String("replay", "", "replay a saved repro file instead of fuzzing")
		shrink    = flag.Bool("shrink", true, "shrink a failing program before writing the repro")
		maxShrink = flag.Int("max-shrink-runs", 500, "re-execution budget for shrinking")
		parallel  = flag.Int("parallel", 0, "worker goroutines for fuzz iterations (0 = one per CPU, 1 = serial)")

		checkpoint = flag.String("checkpoint", "", "persist batch progress (counters, coverage) to this file at each chunk boundary, crash-safely")
		resume     = flag.Bool("resume", false, "resume the batch recorded in -checkpoint, skipping completed iterations")
		ckptStress = flag.Int("checkpoint-stress", 0, "instead of fuzzing, verify checkpoint/restore determinism: per program, replay-and-verify at N random event counts (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("%v", err)
		}
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("%v", err)
		}
	}
	defer writeMemProfile()

	if *replay != "" {
		code := replayFile(*replay, *shrink, *maxShrink, *out)
		writeMemProfile()
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}

	modes := []string{"cohesion", "hwcc", "swcc"}
	if *mode != "" {
		modes = []string{*mode}
	}

	var cov *trace.Coverage
	if *edges {
		cov = trace.NewCoverage() // marks are atomic: shared across workers
	}

	// SIGINT/SIGTERM cancel in-flight simulations cooperatively; the batch
	// stops at the next chunk boundary with a partial summary (exit 130).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Iterations are fully independent (each derives its own seeds), so they
	// fan out across worker goroutines in index-ordered chunks. Failure
	// handling stays deterministic: within a chunk every iteration runs to
	// completion and the lowest-index failure wins, so the reported failure
	// is the same one a serial sweep (-parallel 1) would have hit first.
	type iterResult struct {
		cfg  stress.Config
		prog stress.Program
		res  stress.Result
	}
	nworkers := pool.Workers(*parallel)
	chunk := 4 * nworkers
	var totalChecks, totalCycles uint64
	clean, contained, done := 0, 0, 0
	exit := func(code int) {
		writeMemProfile()
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}
	cfgAt := func(i int) stress.Config {
		return stress.Config{
			Seed:              *seed + int64(i)*1_000_003,
			Mode:              modes[i%len(modes)],
			Clusters:          *clusters,
			Lines:             *lines,
			OpsPerCore:        *ops,
			WorkersPerCluster: *workers,
			Faults:            *faults,
			FaultSeed:         *faultSeed + int64(i),
			InjectCorrupt:     *corrupt,
			TraceRing:         *traceN,
		}
	}

	if *ckptStress > 0 {
		// Checkpoint-stress mode: instead of hunting protocol bugs, each
		// program is killed-and-restored (replay + digest verification) at
		// N random event counts, and every restore must be bit-identical.
		for i := 0; i < *iters; i++ {
			if ctx.Err() != nil {
				fmt.Printf("interrupted after %d of %d checkpoint-stress programs\n", i, *iters)
				exit(130)
			}
			cfg := cfgAt(i)
			p, err := stress.Generate(cfg)
			if err != nil {
				fatal("%v", err)
			}
			rep, err := stress.CheckpointStress(p, *ckptStress, cfg.Seed)
			if err != nil {
				fmt.Printf("iter %d (seed %d, mode %s) checkpoint-stress FAILED:\n  %v\n", i, cfg.Seed, cfg.Mode, err)
				exit(1)
			}
			fmt.Printf("iter %d (seed %d, mode %s): %d/%d depths bit-identical over %d events\n",
				i, cfg.Seed, cfg.Mode, rep.Verified, len(rep.Depths), rep.BaseEvents)
		}
		fmt.Printf("%d programs: checkpoint/restore verified at every probed depth\n", *iters)
		exit(0)
	}

	// Batch checkpointing: progress is persisted at chunk boundaries, so a
	// killed campaign resumes at its last completed chunk with counters,
	// coverage, and repro numbering intact.
	spec := fuzzSpec{
		Seed: *seed, Modes: strings.Join(modes, ","), Clusters: *clusters,
		Lines: *lines, Ops: *ops, Workers: *workers, Faults: *faults,
		FaultSeed: *faultSeed, Corrupt: *corrupt, TraceRing: *traceN,
	}
	start := 0
	if *checkpoint != "" && *resume {
		var st fuzzState
		_, src, err := snapshot.LoadRecover(*checkpoint, snapshot.KindFuzz, &st)
		switch {
		case err == nil:
			if st.Spec != spec {
				fatal("checkpoint %s was written by a different fuzz campaign (flags differ); delete it or rerun without -resume", src)
			}
			start, done, clean, contained = st.NextIter, st.Done, st.Clean, st.Contained
			totalChecks, totalCycles = st.TotalChecks, st.TotalCycles
			if cov != nil && len(st.Coverage) > 0 {
				if unknown := cov.MergeNamed(st.Coverage); len(unknown) > 0 {
					fmt.Fprintf(os.Stderr, "cohesion-fuzz: checkpoint names %d edges not in this build's catalog: %s\n",
						len(unknown), strings.Join(unknown, ", "))
				}
			}
			fmt.Fprintf(os.Stderr, "cohesion-fuzz: resuming at iteration %d from %s\n", start, src)
		case errors.Is(err, os.ErrNotExist):
			// Nothing recorded yet: a resume of a never-started batch is a
			// fresh start, so the same command line works for both.
		default:
			fatal("%v", err)
		}
	}
	for lo := start; lo < *iters; lo += chunk {
		hi := lo + chunk
		if hi > *iters {
			hi = *iters
		}
		results, errs := pool.MapCatch(hi-lo, nworkers, func(j int) (iterResult, error) {
			cfg := cfgAt(lo + j)
			p, err := stress.Generate(cfg)
			if err != nil {
				return iterResult{}, err
			}
			return iterResult{cfg: cfg, prog: p, res: stress.RunProgramOpts(p, stress.RunOpts{Coverage: cov, Ctx: ctx})}, nil
		})
		// A job failing outside the oracle-checked run (generation, or a
		// panic the run did not contain) is a harness fault, not a
		// verdict: stop on the lowest-index one.
		for _, err := range errs {
			if err != nil {
				fatal("%v", err)
			}
		}
		for j, r := range results {
			if errors.Is(r.res.Err, simerr.ErrCanceled) {
				continue // interrupted mid-run by the signal: not a verdict
			}
			done++
			if r.res.Err == nil {
				clean++
				totalChecks += r.res.Checks
				totalCycles += r.res.Cycles
				continue
			}
			p, res := r.prog, r.res
			fmt.Printf("iter %d (seed %d, mode %s, faults %v) FAILED:\n  %v\n",
				lo+j, r.cfg.Seed, r.cfg.Mode, r.cfg.Faults, res.Err)
			category := stress.CategoryOf(res.Err)
			if *shrink {
				q, runs := stress.Shrink(p, category, *maxShrink)
				fmt.Printf("shrunk to %d ops across %d cores in %d runs\n", opCount(q), len(q.Cores), runs)
				if sres := stress.RunProgram(q); sres.Err != nil && stress.CategoryOf(sres.Err) == category {
					p, res = q, sres
				}
			}
			if errors.Is(res.Err, simerr.ErrRunPanicked) {
				// Contained panic: the supervisor writes a repro (numbered
				// after the first, so none is overwritten) and keeps the
				// batch going — one crashing input should not end a long
				// fuzz campaign. The process still exits nonzero at the end.
				contained++
				path := numberedPath(*out, contained)
				if err := stress.NewRepro(p, res).Save(path); err != nil {
					fatal("writing repro: %v", err)
				}
				fmt.Printf("panic contained; repro written to %s (category %s)\n", path, category)
				continue
			}
			if err := stress.NewRepro(p, res).Save(*out); err != nil {
				fatal("writing repro: %v", err)
			}
			fmt.Printf("repro written to %s (category %s)\n", *out, category)
			if *traceOn {
				writeFailureTrace(p, *traceOut)
			}
			exit(1)
		}
		if ctx.Err() != nil {
			// Canceled iterations in this chunk were skipped, not counted, so
			// the checkpoint stays at the last fully-completed chunk; a
			// resume re-runs this chunk from its start.
			fmt.Printf("interrupted after %d of %d programs: %d clean, %d contained panics; %d oracle checks over %d simulated cycles\n",
				done, *iters, clean, contained, totalChecks, totalCycles)
			exit(130)
		}
		if *checkpoint != "" {
			st := fuzzState{
				Spec: spec, NextIter: hi, Done: done, Clean: clean, Contained: contained,
				TotalChecks: totalChecks, TotalCycles: totalCycles,
			}
			if cov != nil {
				st.Coverage = cov.CountsByName()
			}
			if err := snapshot.WriteAtomic(*checkpoint, snapshot.KindFuzz, uint64(hi), st); err != nil {
				fatal("%v", err)
			}
		}
	}
	if contained > 0 {
		fmt.Printf("%d of %d programs panicked (contained, repros written); %d clean: %d oracle checks over %d simulated cycles\n",
			contained, *iters, clean, totalChecks, totalCycles)
		if cov != nil {
			fmt.Printf("protocol edge coverage: %d/%d\n%s", cov.Covered(), cov.Total(), cov.Report())
		}
		exit(1)
	}
	fmt.Printf("%d programs clean: %d oracle checks over %d simulated cycles\n",
		*iters, totalChecks, totalCycles)
	if cov != nil {
		fmt.Printf("protocol edge coverage: %d/%d\n%s", cov.Covered(), cov.Total(), cov.Report())
	}
}

// fuzzSpec pins the flag values that determine iteration outcomes. A
// resumed batch must run under the identical spec — otherwise its skipped
// iterations and accumulated counters would describe a different campaign.
type fuzzSpec struct {
	Seed      int64  `json:"seed"`
	Modes     string `json:"modes"`
	Clusters  int    `json:"clusters"`
	Lines     int    `json:"lines"`
	Ops       int    `json:"ops"`
	Workers   int    `json:"workers"`
	Faults    bool   `json:"faults"`
	FaultSeed int64  `json:"fault_seed"`
	Corrupt   bool   `json:"corrupt"`
	TraceRing int    `json:"trace_ring"`
}

// fuzzState is the KindFuzz checkpoint payload: the next iteration to run
// and everything the batch has accumulated so far.
type fuzzState struct {
	Spec        fuzzSpec          `json:"spec"`
	NextIter    int               `json:"next_iter"`
	Done        int               `json:"done"`
	Clean       int               `json:"clean"`
	Contained   int               `json:"contained"`
	TotalChecks uint64            `json:"total_checks"`
	TotalCycles uint64            `json:"total_cycles"`
	Coverage    map[string]uint64 `json:"coverage,omitempty"`
}

// numberedPath derives the repro path for the n-th contained panic: the
// first keeps the configured name, later ones get a -2, -3, ... suffix
// before the extension.
func numberedPath(base string, n int) string {
	if n <= 1 {
		return base
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + fmt.Sprintf("-%d", n) + ext
}

// writeFailureTrace re-executes a failing program with a structured trace
// sink attached (the original parallel run traced nothing) and exports it.
func writeFailureTrace(p stress.Program, path string) {
	sink := trace.NewSink(0)
	stress.RunProgramOpts(p, stress.RunOpts{Sink: sink})
	f, err := os.Create(path)
	if err != nil {
		fatal("writing trace: %v", err)
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = sink.WriteChromeJSON(f)
	} else {
		err = sink.WriteText(f)
	}
	if err != nil {
		fatal("writing trace: %v", err)
	}
	fmt.Printf("failure trace (%d events) written to %s\n", len(sink.Records()), path)
}

// replayFile re-runs a saved repro, optionally shrinking it further, and
// returns the process exit code: 0 if the failure reproduced, 1 if not,
// 2 for a malformed or truncated repro file (rejected at load time by
// schema validation, with the offending field named, instead of letting
// the replay panic mid-run).
func replayFile(path string, shrink bool, maxShrink int, out string) int {
	r, err := stress.LoadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cohesion-fuzz: %v\n", err)
		return 2
	}
	res, same := stress.Replay(r)
	if !same {
		fmt.Printf("did NOT reproduce %s failure %q; run result: %v\n", path, r.Category, res.Err)
		return 1
	}
	fmt.Printf("reproduced: %v\n", res.Err)
	if shrink {
		q, runs := stress.Shrink(r.Program, r.Category, maxShrink)
		if opCount(q) < opCount(r.Program) {
			if sres := stress.RunProgram(q); sres.Err != nil && stress.CategoryOf(sres.Err) == r.Category {
				if err := stress.NewRepro(q, sres).Save(out); err != nil {
					fatal("writing repro: %v", err)
				}
				fmt.Printf("shrunk to %d ops (was %d) in %d runs; smaller repro written to %s\n",
					opCount(q), opCount(r.Program), runs, out)
			}
		}
	}
	return 0
}

func opCount(p stress.Program) int {
	n := 0
	for _, c := range p.Cores {
		n += len(c.Ops)
	}
	return n
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cohesion-fuzz: "+format+"\n", args...)
	os.Exit(1)
}
