// Command cohesion-sim runs one benchmark kernel on one simulated machine
// configuration and prints the run's statistics.
//
// Examples:
//
//	cohesion-sim -kernel heat -mode cohesion
//	cohesion-sim -kernel dmm -mode hwcc -dir sparse -entries 1024 -assoc 0
//	cohesion-sim -kernel stencil -mode swcc -clusters 16 -scale 4 -verify
//	cohesion-sim -kernel kmeans -mode hwcc -table3   # full 1024-core machine
//	cohesion-sim -kernel heat -faults -fault-seed 7  # fault injection + recovery
//	cohesion-sim -kernel heat -trace -trace-out /dev/stdout  # print the protocol trace
//	cohesion-sim -kernel heat -trace -line 0x40000480 -trace-out /dev/stdout  # one line's history
//	cohesion-sim -kernel heat -checkpoint run.ckpt -checkpoint-every 100000
//	cohesion-sim -resume run.ckpt                    # continue an interrupted run
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"cohesion"
)

func main() {
	var (
		kernel   = flag.String("kernel", "heat", "kernel: "+strings.Join(cohesion.KernelNames(), ", "))
		mode     = flag.String("mode", "cohesion", "memory model: swcc, hwcc, cohesion")
		clusters = flag.Int("clusters", 8, "number of 8-core clusters")
		workers  = flag.Int("workers", 0, "cores running the kernel (0 = 4 per cluster)")
		scale    = flag.Int("scale", 2, "data-set scale")
		seed     = flag.Int64("seed", 42, "workload seed")
		dir      = flag.String("dir", "", "directory: infinite, sparse, dir4b (default: mode-appropriate)")
		entries  = flag.Int("entries", 0, "directory entries per L3 bank (sparse/dir4b)")
		assoc    = flag.Int("assoc", 0, "directory associativity (0 = fully associative)")
		verify   = flag.Bool("verify", true, "verify kernel output against the golden reference")
		table3   = flag.Bool("table3", false, "use the paper's full 1024-core Table 3 machine")
		traceOn  = flag.Bool("trace", false, "record a structured protocol trace and write it to -trace-out")
		traceOut = flag.String("trace-out", "cohesion-trace.json", "trace output file; .json emits Chrome trace-event format, anything else plain text")
		line     = flag.Uint64("line", 0, "with -trace, record only the steps on the line holding this address (0 = every line)")
		metrics  = flag.Bool("metrics", false, "collect and print sim-time histograms (latency, port waits, occupancy) and the coroutine resume count")
		edges    = flag.Bool("edges", false, "track protocol-transition edge coverage and print the report")
		phases   = flag.Bool("phases", false, "print per-phase (barrier-to-barrier) cycle and message breakdown")
		timeline = flag.Bool("timeline", false, "print the traffic timeline as CSV")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of text")

		faults    = flag.Bool("faults", false, "inject network/directory faults (drops, dups, delays, NACKs) with recovery")
		faultSeed = flag.Int64("fault-seed", 1, "fault plan PRNG seed")
		watchdog  = flag.Int64("watchdog", 0, "forward-progress window in cycles (0 = default, negative = disabled)")
		oracleOn  = flag.Bool("oracle", false, "attach the online coherence oracle (fails fast on any protocol invariant violation)")

		timeout   = flag.Duration("timeout", 0, "whole-command wall-clock deadline (0 = none); hitting it cancels the run like SIGINT")
		maxEvents = flag.Uint64("max-events", 0, "deterministic event budget (0 = none); same seed + budget reproduces the same partial result")
		maxWall   = flag.Duration("max-wall", 0, "wall-clock run budget (0 = none); non-reproducible stop point")

		checkpoint = flag.String("checkpoint", "", "write crash-safe snapshots to this file (atomic temp+rename); a budget or SIGINT stop always checkpoints")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "also checkpoint every N executed events (deterministic; needs -checkpoint or -resume)")
		resume     = flag.String("resume", "", "resume from this snapshot file; the machine and kernel come from the snapshot, so machine flags are ignored")

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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal("%v", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the simulation cooperatively; the run ends at
	// the next event-loop check with its partial stats and a diagnostic
	// snapshot instead of dying mid-protocol.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := cohesion.ScaledConfig(*clusters)
	if *table3 {
		cfg = cohesion.Table3Config()
	}
	switch strings.ToLower(*mode) {
	case "swcc":
		cfg = cfg.WithMode(cohesion.SWcc)
	case "hwcc":
		cfg = cfg.WithMode(cohesion.HWcc)
	case "cohesion":
		cfg = cfg.WithMode(cohesion.Cohesion)
	default:
		fatal("unknown mode %q", *mode)
	}
	if *dir != "" {
		var kind cohesion.DirKind
		switch strings.ToLower(*dir) {
		case "infinite":
			kind = cohesion.DirInfinite
		case "sparse":
			kind = cohesion.DirSparse
		case "dir4b":
			kind = cohesion.DirLimited4B
		default:
			fatal("unknown directory %q", *dir)
		}
		e := *entries
		if e == 0 {
			e = cfg.DirEntriesPerBank
		}
		cfg = cfg.WithDirectory(kind, e, *assoc)
	}
	if *faults {
		cfg.Faults = cohesion.DefaultFaultPlan(*faultSeed)
	}
	cfg.WatchdogCycles = *watchdog
	cfg.OracleEnabled = *oracleOn

	var sink *cohesion.TraceSink
	if *traceOn {
		sink = cohesion.NewTraceSink(0)
	}
	if *line != 0 {
		if sink == nil {
			fatal("-line needs -trace")
		}
		if *line >= 1<<32 {
			fatal("-line %#x is outside the 32-bit address space", *line)
		}
		sink.OnlyLine(*line &^ (cohesion.LineBytes - 1))
	}
	var cov *cohesion.Coverage
	if *edges {
		cov = cohesion.NewCoverage()
	}
	var res *cohesion.Result
	var err error
	switch {
	case *resume != "":
		// The snapshot records the machine, kernel, seeds, and verify
		// choice; only lifecycle and observability flags apply here.
		var info *cohesion.ResumeInfo
		res, info, err = cohesion.ResumeRun(ctx, *resume, cohesion.ResumeOptions{
			Every:     *ckptEvery,
			Limits:    cohesion.RunLimits{MaxEvents: *maxEvents, WallBudget: *maxWall},
			TraceSink: sink,
			Coverage:  cov,
			Metrics:   *metrics,
		})
		if info != nil {
			fmt.Fprintf(os.Stderr, "cohesion-sim: resumed from %s at event %d (cycle %d)\n",
				info.Source, info.Events, info.Cycle)
		}
	default:
		rc := cohesion.RunConfig{
			Machine:   cfg,
			Kernel:    *kernel,
			Scale:     *scale,
			Seed:      *seed,
			Workers:   *workers,
			Verify:    *verify,
			TraceSink: sink,
			Coverage:  cov,
			Metrics:   *metrics,
			Limits:    cohesion.RunLimits{MaxEvents: *maxEvents, WallBudget: *maxWall},
		}
		if *checkpoint != "" {
			res, err = cohesion.RunWithCheckpoints(ctx, rc, cohesion.CheckpointConfig{Path: *checkpoint, Every: *ckptEvery})
		} else {
			res, err = cohesion.RunCtx(ctx, rc)
		}
	}
	if err != nil {
		exitEarly(res, err, *cpuprofile, *memprofile)
	}
	if sink != nil {
		if err := sink.WriteFile(*traceOut); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "cohesion-sim: wrote %d trace events to %s (%d dropped)\n",
			len(sink.Records()), *traceOut, sink.Dropped())
	}
	if *jsonOut {
		emitJSON(res)
		return
	}
	fmt.Printf("%s on %s (%v, %v directory, %d cores)\n",
		res.Kernel, res.Config.Label, res.Mode, res.Config.Directory, res.Config.Cores())
	fmt.Print(res.Stats.String())
	if *faults {
		fmt.Printf("  memory fingerprint %#x (fault seed %d)\n", res.MemFingerprint, *faultSeed)
	}
	if *phases {
		fmt.Println("\nphase,end_cycle,cycles,messages")
		var prevC, prevM uint64
		for i, mk := range res.Stats.PhaseMarks {
			fmt.Printf("%d,%d,%d,%d\n", i, mk.Cycle, mk.Cycle-prevC, mk.Messages-prevM)
			prevC, prevM = mk.Cycle, mk.Messages
		}
	}
	if *timeline {
		fmt.Println("\ncycle,messages,probes,dir_entries")
		for _, s := range res.Stats.Timeline {
			fmt.Printf("%d,%d,%d,%d\n", s.Cycle, s.Messages, s.Probes, s.DirEntries)
		}
	}
	if res.Stats.Metrics != nil {
		fmt.Printf("\n== metrics ==\n%s", res.Stats.Metrics.Summary().String())
		fmt.Printf("core coroutine resumes: %d\n", res.Stats.Resumes)
	}
	if cov != nil {
		fmt.Printf("\n== protocol edge coverage: %d/%d ==\n%s", cov.Covered(), cov.Total(), cov.Report())
	}
}

// emitJSON prints the run's key measurements as a JSON object.
func emitJSON(res *cohesion.Result) {
	messages := map[string]uint64{}
	for _, k := range cohesion.MsgKinds() {
		messages[k.String()] = res.Messages(k)
	}
	out := map[string]any{
		"kernel":            res.Kernel,
		"mode":              res.Mode.String(),
		"cores":             res.Config.Cores(),
		"directory":         res.Config.Directory.String(),
		"cycles":            res.Cycles(),
		"instructions":      res.Stats.Instructions,
		"messages_total":    res.TotalMessages(),
		"messages":          messages,
		"probes":            res.Stats.ProbesSent,
		"transitions_to_hw": res.Stats.TransitionsToHW,
		"transitions_to_sw": res.Stats.TransitionsToSW,
		"dir_evictions":     res.Stats.DirEvictions,
		"dir_mean_entries":  res.Stats.Occupancy.MeanTotal(),
		"dir_max_entries":   res.Stats.Occupancy.MaxTotal(),
		"dram_reads":        res.Stats.DRAMReads,
		"dram_writes":       res.Stats.DRAMWrites,
		"net_messages":      res.Stats.NetMessages,
		"net_bytes":         res.Stats.NetBytes,
		"swcc_inv_useful":   res.Stats.UsefulInvFraction(),
		"swcc_wb_useful":    res.Stats.UsefulWBFraction(),
		"fault_drops":       res.Stats.FaultDrops,
		"fault_dups":        res.Stats.FaultDups,
		"fault_delays":      res.Stats.FaultDelays,
		"nacks_sent":        res.Stats.NacksSent,
		"l2_retries":        res.Stats.L2Retries,
		"nack_retries":      res.Stats.NackRetries,
		"mem_fingerprint":   res.MemFingerprint,
	}
	if res.Stats.Metrics != nil {
		out["metrics"] = res.Stats.Metrics.Export()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal("%v", err)
	}
}

// exitEarly reports a run that did not finish cleanly. Canceled (SIGINT,
// SIGTERM, -timeout) and budget-exhausted runs are graceful degradations:
// the partial stats and memory fingerprint are printed before exiting with
// a distinguishing code (130 for canceled, matching shell convention for
// SIGINT; 3 for an exhausted budget; 4 for a resume that diverged from
// its snapshot). Everything else is a plain failure. The error text
// carries the diagnostic snapshot (unfinished cores, trace ring tail), so
// it goes to stderr in full.
func exitEarly(res *cohesion.Result, err error, cpuprofile, memprofile string) {
	code := 1
	switch {
	case errors.Is(err, cohesion.ErrCanceled):
		code = 130
	case errors.Is(err, cohesion.ErrBudgetExhausted):
		code = 3
	case errors.Is(err, cohesion.ErrDiverged):
		code = 4
	}
	fmt.Fprintf(os.Stderr, "cohesion-sim: %v\n", err)
	if res != nil {
		fmt.Printf("== partial result (run ended early at cycle %d) ==\n", res.Cycles())
		fmt.Print(res.Stats.String())
		fmt.Printf("  memory fingerprint %#x\n", res.MemFingerprint)
	}
	// os.Exit skips the deferred profile writers; flush them by hand.
	if cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if memprofile != "" {
		if f, ferr := os.Create(memprofile); ferr == nil {
			runtime.GC()
			pprof.WriteHeapProfile(f)
			f.Close()
		}
	}
	os.Exit(code)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cohesion-sim: "+format+"\n", args...)
	os.Exit(1)
}
