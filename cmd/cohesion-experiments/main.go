// Command cohesion-experiments regenerates the tables and figures of the
// paper's evaluation (Figures 2, 3, 8, 9a/9b/9c, 10, the §4.4 area table,
// and the headline summary), printing each as an aligned text table or,
// with -csv, as machine-readable CSV for plotting.
//
// Examples:
//
//	cohesion-experiments -fig 8
//	cohesion-experiments -fig 9a -kernels heat,sobel
//	cohesion-experiments -fig 10 -csv > fig10.csv
//	cohesion-experiments -fig all -scale 4 > results.txt
package main

import (
	"context"
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
	"cohesion/internal/stats"
)

var (
	csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	parallel = flag.Int("parallel", 0, "worker goroutines for independent runs (0 = one per CPU, 1 = serial)")

	// sweepDegraded records that at least one sweep cell failed (its row
	// rendered as failed(...)); the process exits nonzero at the end, after
	// every figure has still been printed.
	sweepDegraded bool
	// canceled records that a sweep ended on cooperative cancellation
	// (SIGINT/SIGTERM or -timeout), for the 130 exit code.
	canceled bool
)

func main() { os.Exit(run()) }

func run() int {
	var (
		fig        = flag.String("fig", "all", "which figure: 2, 3, 8, 9a, 9b, 9c, 10, latency, area, table3, summary, scaling, all")
		clusters   = flag.Int("clusters", 0, "clusters (0 = harness default)")
		workers    = flag.Int("workers", 0, "worker cores (0 = harness default)")
		scale      = flag.Int("scale", 0, "kernel scale (0 = harness default)")
		seed       = flag.Int64("seed", 42, "workload seed")
		kernels    = flag.String("kernels", "", "comma-separated kernel subset (default all)")
		verify     = flag.Bool("verify", false, "verify kernel outputs on every run (slower)")
		timeout    = flag.Duration("timeout", 0, "whole-command wall-clock deadline (0 = none); hitting it cancels remaining runs")
		maxEvents  = flag.Uint64("max-events", 0, "per-run deterministic event budget (0 = none); budget-ended cells render as failed(...)")
		maxWall    = flag.Duration("max-wall", 0, "per-run wall-clock budget (0 = none); non-reproducible stop point")
		checkpoint = flag.String("checkpoint", "", "record completed sweep cells to this file (atomic per-cell writes) so an interrupted sweep can resume")
		resume     = flag.Bool("resume", false, "serve cells already recorded in -checkpoint from the cache and run only the rest")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			defer f.Close()
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
		}()
	}

	p := cohesion.ExpParams{
		Clusters: *clusters,
		Workers:  *workers,
		Scale:    *scale,
		Seed:     *seed,
		Verify:   *verify,
		Parallel: *parallel,
		Ctx:      ctx,
		Limits:   cohesion.RunLimits{MaxEvents: *maxEvents, WallBudget: *maxWall},
	}
	if *kernels != "" {
		p.Kernels = strings.Split(*kernels, ",")
	}
	if *resume && *checkpoint == "" {
		check(fmt.Errorf("-resume needs -checkpoint"))
	}
	if *checkpoint != "" {
		ck, err := cohesion.OpenSweepCheckpoint(*checkpoint, *resume)
		check(err)
		if n := ck.Cells(); n > 0 {
			fmt.Fprintf(os.Stderr, "cohesion-experiments: resuming with %d completed cells from %s\n", n, ck.Path())
		}
		p.Checkpoint = ck
		defer func() {
			fmt.Fprintf(os.Stderr, "cohesion-experiments: checkpoint %s holds %d cells (%d served from cache this run)\n",
				ck.Path(), ck.Cells(), ck.Reused())
		}()
	}

	figures := map[string]func(cohesion.ExpParams){
		"table3":  showTable3,
		"2":       showFig2,
		"3":       showFig3,
		"8":       showFig8,
		"9a":      func(p cohesion.ExpParams) { showFig9(p, "9a", cohesion.HWcc) },
		"9b":      func(p cohesion.ExpParams) { showFig9(p, "9b", cohesion.Cohesion) },
		"9c":      showFig9c,
		"10":      showFig10,
		"latency": showLatency,
		"area":    showArea,
		"summary": showSummary,
		"scaling": showScaling,
	}
	if *fig == "all" {
		for _, name := range []string{"table3", "2", "3", "8", "9a", "9b", "9c", "10", "area", "summary"} {
			figures[name](p)
		}
		return exitCode()
	}
	f, ok := figures[*fig]
	if !ok {
		check(fmt.Errorf("unknown figure %q", *fig))
	}
	f(p)
	return exitCode()
}

// exitCode maps the degradation state to the process exit code: 0 clean,
// 130 when a sweep was canceled (SIGINT/-timeout, shell convention for
// SIGINT), 1 when cells failed but the sweep completed.
func exitCode() int {
	switch {
	case canceled:
		return 130
	case sweepDegraded:
		return 1
	}
	return 0
}

// note reports a sweep-level error without aborting: the figure's table
// (with failed(...) cells) has already been printed; the full failure
// detail goes to stderr and the process exits nonzero at the end.
func note(err error) {
	if err == nil {
		return
	}
	sweepDegraded = true
	if errors.Is(err, cohesion.ErrCanceled) {
		canceled = true
	}
	fmt.Fprintln(os.Stderr, "cohesion-experiments:", err)
}

func showTable3(cohesion.ExpParams) {
	cfg := cohesion.Table3Config()
	fmt.Printf("Table 3 machine: %d cores, %d clusters, L2 %dKB %d-way, L3 %dMB/%d banks, dir %d x %d-way/bank\n\n",
		cfg.Cores(), cfg.Clusters, cfg.L2Size>>10, cfg.L2Assoc, cfg.L3Size>>20, cfg.L3Banks,
		cfg.DirEntriesPerBank, cfg.DirAssoc)
}

func showFig2(p cohesion.ExpParams) {
	rows, err := cohesion.Fig2(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.BreakdownCSV(rows))
		return
	}
	fmt.Println("== Figure 2: L2 output messages, SWcc vs optimistic HWcc (normalized to SWcc) ==")
	fmt.Println(cohesion.BreakdownTable(rows))
}

func showFig3(p cohesion.ExpParams) {
	rows, err := cohesion.Fig3(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.FlushEfficiencyCSV(rows))
		return
	}
	fmt.Println("== Figure 3: useful SWcc coherence instructions vs L2 size ==")
	t := &stats.Table{Header: []string{"kernel", "L2", "useful-inv", "useful-wb"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.Add(r.Kernel, fmt.Sprintf("%dK", r.L2KB), r.Failed, "-")
			continue
		}
		t.Add(r.Kernel, fmt.Sprintf("%dK", r.L2KB), fmt.Sprintf("%.3f", r.UsefulInv), fmt.Sprintf("%.3f", r.UsefulWB))
	}
	fmt.Println(t)
}

func showFig8(p cohesion.ExpParams) {
	rows, err := cohesion.Fig8(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.BreakdownCSV(rows))
		return
	}
	fmt.Println("== Figure 8: L2 output messages, four design points (normalized to SWcc) ==")
	fmt.Println(cohesion.BreakdownTable(rows))
}

func showFig9(p cohesion.ExpParams, name string, mode cohesion.Mode) {
	pts, err := cohesion.Fig9Sweep(p, mode)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.DirSweepCSV(pts))
		return
	}
	fmt.Printf("== Figure %s: %v slowdown vs directory entries per bank (1.00 = infinite) ==\n", name, mode)
	t := &stats.Table{Header: []string{"kernel", "entries/bank", "cycles", "slowdown"}}
	for _, pt := range pts {
		lbl := fmt.Sprint(pt.EntriesPerBank)
		if pt.EntriesPerBank == 0 {
			lbl = "inf"
		}
		if pt.Failed != "" {
			t.Add(pt.Kernel, lbl, pt.Failed, "-")
			continue
		}
		t.Add(pt.Kernel, lbl, fmt.Sprint(pt.Cycles), fmt.Sprintf("%.2f", pt.Slowdown))
	}
	fmt.Println(t)
}

func showFig9c(p cohesion.ExpParams) {
	rows, err := cohesion.Fig9c(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.OccupancyCSV(rows))
		return
	}
	fmt.Println("== Figure 9c: directory entries allocated (unbounded directory) ==")
	t := &stats.Table{Header: []string{"kernel", "config", "mean", "code", "heap/global", "stack", "max"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.Add(r.Kernel, r.Config, r.Failed, "-", "-", "-", "-")
			continue
		}
		t.Add(r.Kernel, r.Config, fmt.Sprintf("%.0f", r.MeanTotal), fmt.Sprintf("%.0f", r.MeanCode),
			fmt.Sprintf("%.0f", r.MeanHeap), fmt.Sprintf("%.0f", r.MeanStack), fmt.Sprint(r.MaxTotal))
	}
	fmt.Println(t)
}

func showFig10(p cohesion.ExpParams) {
	rows, err := cohesion.Fig10(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.RuntimeCSV(rows))
		return
	}
	fmt.Println("== Figure 10: run time normalized to Cohesion (full-map) ==")
	t := &stats.Table{Header: []string{"kernel", "config", "cycles", "normalized"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.Add(r.Kernel, r.Config, r.Failed, "-")
			continue
		}
		t.Add(r.Kernel, r.Config, fmt.Sprint(r.Cycles), fmt.Sprintf("%.2f", r.Normalized))
	}
	fmt.Println(t)
}

func showLatency(p cohesion.ExpParams) {
	rows, err := cohesion.LatencyTable(p)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.LatencyCSV(rows))
		return
	}
	fmt.Println("== Message latency: issue-to-settle sim time by class (cycles) ==")
	t := &stats.Table{Header: []string{"kernel", "config", "class", "count", "mean", "p50", "p90", "p99", "max"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.Add(r.Kernel, r.Config, r.Failed, "-", "-", "-", "-", "-", "-")
			continue
		}
		t.Add(r.Kernel, r.Config, r.Class, fmt.Sprint(r.Count), fmt.Sprintf("%.1f", r.Mean),
			fmt.Sprint(r.P50), fmt.Sprint(r.P90), fmt.Sprint(r.P99), fmt.Sprint(r.Max))
	}
	fmt.Println(t)
}

func showScaling(p cohesion.ExpParams) {
	kernel := "heat"
	if len(p.Kernels) > 0 {
		kernel = p.Kernels[0]
	}
	rows, err := cohesion.ScalingStudy(p, kernel, nil)
	note(err)
	if *csvOut {
		fmt.Print(cohesion.ScalingCSV(rows))
		return
	}
	fmt.Printf("== Scaling study (%s, weak scaling): coherence cost vs machine size ==\n", kernel)
	t := &stats.Table{Header: []string{"cores", "config", "cycles", "messages", "msgs/core", "probes"}}
	for _, r := range rows {
		if r.Failed != "" {
			t.Add(fmt.Sprint(r.Cores), r.Config, r.Failed, "-", "-", "-")
			continue
		}
		t.Add(fmt.Sprint(r.Cores), r.Config, fmt.Sprint(r.Cycles), fmt.Sprint(r.Messages),
			fmt.Sprintf("%.1f", r.MessagesPerCore), fmt.Sprint(r.ProbesSent))
	}
	fmt.Println(t)
}

func showArea(cohesion.ExpParams) {
	fmt.Println("== §4.4: directory area estimates (Table 3 machine) ==")
	for _, e := range cohesion.AreaEstimates() {
		fmt.Println(e)
	}
	fmt.Println()
}

func showSummary(p cohesion.ExpParams) {
	s, err := cohesion.HeadlineSummary(p)
	if err != nil {
		// The headline geomeans need every cell; without them there is no
		// partial table to print — note the failure and move on.
		note(err)
		fmt.Println("== Headline summary unavailable: a sweep cell failed ==")
		return
	}
	fmt.Printf("== Headline: message reduction (HWcc-ideal/Cohesion, geomean) = %.2fx; directory utilization reduction (aggregate) = %.2fx ==\n",
		s.MessageReduction, s.DirectoryReduction)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohesion-experiments:", err)
		os.Exit(1)
	}
}
