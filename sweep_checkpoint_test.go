package cohesion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cohesion/internal/simerr"
)

// TestSweepCheckpointResumesOnlyFailedCells is the degraded-sweep resume
// acceptance check: a sweep in which one cell fails records every other
// cell to the checkpoint, and the resumed sweep re-runs ONLY the failed
// cell — every cached cell is served from disk and the final table is
// bit-identical to a clean uninterrupted sweep.
func TestSweepCheckpointResumesOnlyFailedCells(t *testing.T) {
	defer func() { runForTest = nil }()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := ExpParams{Kernels: []string{"heat", "fft", "sobel"}, Parallel: 4}

	// Reference: a clean sweep with no checkpoint at all.
	runForTest = func(job runJob) (*Result, error) {
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	clean, err := Fig8(p)
	if err != nil {
		t.Fatalf("clean sweep failed: %v", err)
	}

	// Pass 1: same sweep, checkpointed, with one cell failing on budget.
	var firstCalls atomic.Int64
	runForTest = func(job runJob) (*Result, error) {
		firstCalls.Add(1)
		if job.rc.Kernel == "fft" && job.name == "Cohesion" {
			return nil, simerr.ErrBudgetExhausted
		}
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	ck, err := OpenSweepCheckpoint(path, false)
	if err != nil {
		t.Fatalf("OpenSweepCheckpoint: %v", err)
	}
	p.Checkpoint = ck
	if _, err := Fig8(p); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("degraded sweep error = %v, want ErrBudgetExhausted", err)
	}
	total := int(firstCalls.Load())
	if ck.Cells() != total-1 {
		t.Fatalf("checkpoint holds %d cells after %d runs with 1 failure", ck.Cells(), total)
	}

	// Pass 2: resume. Only the failed cell may reach the runner.
	var resumeCalls atomic.Int64
	var resumedCell string
	runForTest = func(job runJob) (*Result, error) {
		resumeCalls.Add(1)
		resumedCell = job.rc.Kernel + "/" + job.name
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	ck2, err := OpenSweepCheckpoint(path, true)
	if err != nil {
		t.Fatalf("OpenSweepCheckpoint(resume): %v", err)
	}
	if ck2.Cells() != total-1 {
		t.Fatalf("resumed checkpoint holds %d cells, want %d", ck2.Cells(), total-1)
	}
	p.Checkpoint = ck2
	resumed, err := Fig8(p)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if n := resumeCalls.Load(); n != 1 {
		t.Fatalf("resume re-ran %d cells, want only the failed one", n)
	}
	if resumedCell != "fft/Cohesion" {
		t.Fatalf("resume re-ran %s, want fft/Cohesion", resumedCell)
	}
	if ck2.Reused() != total-1 {
		t.Fatalf("resume served %d cells from cache, want %d", ck2.Reused(), total-1)
	}
	if ck2.Cells() != total {
		t.Fatalf("completed resume holds %d cells, want %d", ck2.Cells(), total)
	}
	if !reflect.DeepEqual(clean, resumed) {
		t.Fatalf("resumed sweep table differs from clean run:\nclean   %+v\nresumed %+v", clean, resumed)
	}
}

// TestSweepCheckpointServesOnlyMatchingSpecs: a sweep with other
// parameters over the same file is served none of its cells — every
// cell key carries the whole RunSpec — and its table matches its own
// fresh run.
func TestSweepCheckpointServesOnlyMatchingSpecs(t *testing.T) {
	defer func() { runForTest = nil }()
	runForTest = func(job runJob) (*Result, error) {
		return fakeCellResult(job.rc.Kernel, fmt.Sprint(job.name, job.rc.Seed)), nil
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := ExpParams{Kernels: []string{"heat"}, Seed: 1, Parallel: 2}
	ck, err := OpenSweepCheckpoint(path, false)
	if err != nil {
		t.Fatalf("OpenSweepCheckpoint: %v", err)
	}
	p.Checkpoint = ck
	first, err := Fig2(p)
	if err != nil {
		t.Fatalf("seed sweep failed: %v", err)
	}

	other := ExpParams{Kernels: []string{"heat"}, Seed: 2, Parallel: 2}
	want, err := Fig2(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, want) {
		t.Fatal("the two seeds' tables are equal, so serving the wrong cells would not show")
	}
	if other.Checkpoint, err = OpenSweepCheckpoint(path, true); err != nil {
		t.Fatalf("OpenSweepCheckpoint(resume): %v", err)
	}
	got, err := Fig2(other)
	if err != nil {
		t.Fatal(err)
	}
	if n := other.Checkpoint.Reused(); n != 0 {
		t.Fatalf("a sweep with another seed was served %d cells", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table over a foreign checkpoint differs from a fresh run:\ngot  %+v\nwant %+v", got, want)
	}

	// A missing file is a fresh start, not an error.
	fresh, err := OpenSweepCheckpoint(filepath.Join(t.TempDir(), "none.ckpt"), true)
	if err != nil || fresh.Cells() != 0 {
		t.Fatalf("missing-file resume = (%v cells, %v), want empty fresh start", fresh.Cells(), err)
	}
}

// TestSweepCheckpointSharesCellsAcrossFigures: a cell is keyed by its
// RunSpec, not its label, so Fig9c's HWcc column is served from Fig8's
// HWccIdeal cells, and a summary after Fig8 and Fig9c simulates nothing.
func TestSweepCheckpointSharesCellsAcrossFigures(t *testing.T) {
	defer func() { runForTest = nil }()
	var mu sync.Mutex
	var ran []string
	runForTest = func(job runJob) (*Result, error) {
		mu.Lock()
		ran = append(ran, job.rc.Kernel+"/"+job.name)
		mu.Unlock()
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	calls := func() []string {
		defer func() { ran = nil }()
		sort.Strings(ran)
		return ran
	}
	p := ExpParams{Kernels: []string{"heat", "kmeans"}, Parallel: 2}
	ck, err := OpenSweepCheckpoint(filepath.Join(t.TempDir(), "sweep.ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = ck
	if _, err := Fig8(p); err != nil {
		t.Fatal(err)
	}
	if n := len(calls()); n != 8 {
		t.Fatalf("Fig8 ran %d cells, want 8", n)
	}
	if _, err := Fig9c(p); err != nil {
		t.Fatal(err)
	}
	if got, want := calls(), []string{"heat/Cohesion", "kmeans/Cohesion"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig9c ran %v, want only its unbounded Cohesion cells %v", got, want)
	}
	if ck.Reused() != 2 || ck.Cells() != 10 {
		t.Fatalf("after Fig9c: %d served, %d held; want 2 and 10", ck.Reused(), ck.Cells())
	}
	if _, err := HeadlineSummary(p); err != nil {
		t.Fatal(err)
	}
	if got := calls(); len(got) != 0 {
		t.Fatalf("HeadlineSummary ran %v after Fig8 and Fig9c filled the checkpoint", got)
	}
	if ck.Reused() != 8 || ck.Cells() != 10 {
		t.Fatalf("after the summary: %d served, %d held; want 8 and 10", ck.Reused(), ck.Cells())
	}
}

// TestLatencyTableBypassesCheckpoint: LatencyTable's cells have the same
// RunSpecs as Fig8's, but a checkpoint holds no histograms, so over a
// checkpoint holding Fig8's cells it still runs every cell, records
// none, and reports what it reports without one.
func TestLatencyTableBypassesCheckpoint(t *testing.T) {
	defer func() { runForTest = nil }()
	p := ExpParams{Clusters: 2, Scale: 1, Kernels: []string{"heat"}, Parallel: 2}
	want, err := LatencyTable(p)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := OpenSweepCheckpoint(filepath.Join(t.TempDir(), "sweep.ckpt"), false)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = ck
	if _, err := Fig8(p); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	runForTest = func(job runJob) (*Result, error) {
		calls.Add(1)
		return RunCtx(context.Background(), job.rc)
	}
	got, err := LatencyTable(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("LatencyTable ran %d of its 3 cells", n)
	}
	if ck.Reused() != 0 || ck.Cells() != 4 {
		t.Fatalf("LatencyTable was served %d cells and left %d in the checkpoint; want 0 and Fig8's 4", ck.Reused(), ck.Cells())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LatencyTable over a checkpoint differs from one without:\ngot  %+v\nwant %+v", got, want)
	}
}
