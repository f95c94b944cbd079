package cohesion

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"cohesion/internal/pool"
	"cohesion/internal/simerr"
	"cohesion/internal/stress"
)

// runBudgeted runs one kernel under a deterministic event budget and
// returns the partial result.
func runBudgeted(t *testing.T, budget uint64) *Result {
	t.Helper()
	res, err := Run(RunConfig{
		Machine: ScaledConfig(2),
		Kernel:  "heat",
		Scale:   1,
		Seed:    42,
		Limits:  RunLimits{MaxEvents: budget},
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Run = %v, want ErrBudgetExhausted", err)
	}
	if res == nil {
		t.Fatal("budget-ended run returned no partial result")
	}
	return res
}

// TestPartialResultDeterministicAtEventBudget is the reproducibility
// acceptance check: a run canceled at a fixed event budget must produce a
// bit-identical partial memory fingerprint and stats on every execution
// with the same seed and budget.
func TestPartialResultDeterministicAtEventBudget(t *testing.T) {
	const budget = 4_000
	a := runBudgeted(t, budget)
	b := runBudgeted(t, budget)
	if a.MemFingerprint != b.MemFingerprint {
		t.Fatalf("partial fingerprints diverged: %#x vs %#x", a.MemFingerprint, b.MemFingerprint)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("partial stats diverged:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
	// A different budget must actually stop elsewhere — otherwise the
	// "budget" was never the thing ending the run.
	c := runBudgeted(t, 2*budget)
	if c.Stats.Cycles <= a.Stats.Cycles {
		t.Fatalf("doubling the budget did not advance the run: %d -> %d cycles", a.Stats.Cycles, c.Stats.Cycles)
	}
}

// fakeCellResult fabricates a deterministic Result for one sweep cell,
// derived only from the cell's kernel and configuration label.
func fakeCellResult(kernel, config string) *Result {
	h := fnv.New64a()
	h.Write([]byte(kernel + "/" + config))
	seed := h.Sum64()
	r := &Result{Kernel: kernel}
	for k := range r.Stats.Messages {
		r.Stats.Messages[k] = seed%1000 + uint64(k)*7
	}
	r.Stats.Cycles = seed % 100_000
	return r
}

// TestPanickedCellLeavesSweepBitIdentical is the graceful-degradation
// acceptance check: a panicked cell in a parallel experiment sweep must
// leave every other cell's rows bit-identical to a clean serial sweep,
// render as failed(...), and surface ErrRunPanicked on the sweep error.
func TestPanickedCellLeavesSweepBitIdentical(t *testing.T) {
	defer func() { runForTest = nil }()
	p := ExpParams{Kernels: []string{"heat", "fft", "sobel"}, Parallel: 1}

	runForTest = func(job runJob) (*Result, error) {
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	clean, err := Fig8(p)
	if err != nil {
		t.Fatalf("clean sweep failed: %v", err)
	}

	// Same sweep, parallel, with one cell panicking mid-simulation.
	runForTest = func(job runJob) (*Result, error) {
		if job.rc.Kernel == "fft" && job.name == "HWccReal" {
			panic("injected cell panic")
		}
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	p.Parallel = 8
	degraded, err := Fig8(p)
	if err == nil {
		t.Fatal("sweep with a panicked cell reported success")
	}
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("sweep error = %v, want ErrRunPanicked in the chain", err)
	}
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("sweep error %v does not expose *pool.PanicError", err)
	}
	if pe.Value != "injected cell panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost the panic context: %+v", pe)
	}
	var sw *SweepError
	if !errors.As(err, &sw) {
		t.Fatalf("sweep error %v is not a *SweepError", err)
	}
	if len(sw.Cells) != 1 || sw.Cells[0].Kernel != "fft" {
		t.Fatalf("SweepError cells = %+v, want exactly the fft/HWccReal cell", sw.Cells)
	}

	if len(degraded) != len(clean) {
		t.Fatalf("degraded sweep has %d rows, clean has %d", len(degraded), len(clean))
	}
	failedRows := 0
	for i := range clean {
		if degraded[i].Failed != "" {
			failedRows++
			if degraded[i].Kernel != "fft" || degraded[i].Config != "HWccReal" {
				t.Fatalf("wrong cell failed: %s/%s", degraded[i].Kernel, degraded[i].Config)
			}
			if !strings.HasPrefix(degraded[i].Failed, "failed(") {
				t.Fatalf("failed cell marker %q missing failed(...) form", degraded[i].Failed)
			}
			continue
		}
		if !reflect.DeepEqual(clean[i], degraded[i]) {
			t.Fatalf("row %d (%s/%s) perturbed by the panicked cell:\nclean    %+v\ndegraded %+v",
				i, clean[i].Kernel, clean[i].Config, clean[i], degraded[i])
		}
	}
	if failedRows != 1 {
		t.Fatalf("%d failed rows, want exactly 1", failedRows)
	}
}

// TestSweepErrorMixedSentinels drives one sweep in which three different
// cells fail for three different reasons — cancellation, budget
// exhaustion, and a contained panic — and checks the aggregated
// *SweepError surfaces every category at once: errors.Is finds each
// sentinel, Unwrap() []error exposes exactly the failed cells, and the
// multi-line Error() names every failure.
func TestSweepErrorMixedSentinels(t *testing.T) {
	defer func() { runForTest = nil }()
	runForTest = func(job runJob) (*Result, error) {
		switch {
		case job.rc.Kernel == "heat" && job.name == "SWcc":
			return nil, simerr.New(ErrCanceled, 10, "machine", 0, "synthetic cancellation")
		case job.rc.Kernel == "fft" && job.name == "HWccIdeal":
			return nil, simerr.New(ErrBudgetExhausted, 20, "machine", 0, "synthetic budget stop")
		case job.rc.Kernel == "sobel" && job.name == "HWccReal":
			panic("mixed-sentinel boom")
		}
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}

	p := ExpParams{Kernels: []string{"heat", "fft", "sobel"}, Parallel: 4}
	rows, err := Fig8(p)
	if err == nil {
		t.Fatal("sweep with three failing cells reported success")
	}
	var sw *SweepError
	if !errors.As(err, &sw) {
		t.Fatalf("sweep error %v is not a *SweepError", err)
	}
	if len(sw.Cells) != 3 {
		t.Fatalf("SweepError has %d cells, want 3: %+v", len(sw.Cells), sw.Cells)
	}
	if got := len(sw.Unwrap()); got != 3 {
		t.Fatalf("Unwrap() returned %d errors, want 3", got)
	}

	// One errors.Is per category against the single aggregated error: the
	// multi-error Unwrap must let each sentinel be found independently.
	for _, tc := range []struct {
		name     string
		sentinel error
	}{
		{"canceled", ErrCanceled},
		{"budget", ErrBudgetExhausted},
		{"panic", ErrRunPanicked},
	} {
		if !errors.Is(sw, tc.sentinel) {
			t.Errorf("errors.Is(sweep, %s sentinel) = false; sweep: %v", tc.name, sw)
		}
	}

	// The structured diagnostics survive aggregation too, not just the
	// sentinels: errors.As digs out a simerr.Error and the pool's
	// PanicError with its stack.
	var se *simerr.Error
	if !errors.As(sw, &se) {
		t.Fatalf("SweepError lost the structured cell errors")
	}
	var pe *pool.PanicError
	if !errors.As(sw, &pe) || pe.Value != "mixed-sentinel boom" {
		t.Fatalf("SweepError lost the contained panic: %+v", pe)
	}

	// Every failed cell is identified by kernel/config in the aggregate,
	// and the multi-line message names each additional failure.
	got := map[string]bool{}
	for _, c := range sw.Cells {
		got[c.Kernel+"/"+c.Config] = true
	}
	for _, want := range []string{"heat/SWcc", "fft/HWccIdeal", "sobel/HWccReal"} {
		if !got[want] {
			t.Errorf("SweepError cells %v missing %s", sw.Cells, want)
		}
	}
	if msg := sw.Error(); strings.Count(msg, "\n") != 2 {
		t.Errorf("SweepError message should carry one line per extra failure:\n%s", msg)
	}
	failed := 0
	for _, r := range rows {
		if r.Failed != "" {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("%d rows marked failed, want 3", failed)
	}
}

// TestSweepCancellationPropagates cancels a sweep before it starts: every
// cell must fail fast with ErrCanceled instead of simulating.
func TestSweepCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := ExpParams{Kernels: []string{"heat"}, Parallel: 2, Ctx: ctx}
	rows, err := Fig2(p)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled sweep error = %v, want ErrCanceled", err)
	}
	for _, r := range rows {
		if r.Failed == "" {
			t.Fatalf("row %s/%s not marked failed under cancellation", r.Kernel, r.Config)
		}
	}
}

// TestSentinelMatrix sweeps every simerr sentinel across the error
// surfaces a supervising layer dispatches on: the raw structured error,
// the cohesion.Run wrapping, sweep aggregation, pool panic containment,
// and the fuzzer's replay classifier.
func TestSentinelMatrix(t *testing.T) {
	sentinels := []struct {
		name     string
		err      error
		category string // stress.SentinelOf class
	}{
		{"deadlock", ErrDeadlock, "deadlock"},
		{"retry-exhausted", ErrRetryExhausted, "retry-exhausted"},
		{"protocol-invariant", ErrProtocolInvariant, "protocol-invariant"},
		{"config", ErrConfig, "config"},
		{"canceled", ErrCanceled, "canceled"},
		{"budget-exhausted", ErrBudgetExhausted, "budget"},
		{"run-panicked", ErrRunPanicked, "panic"},
	}
	for _, tc := range sentinels {
		t.Run(tc.name, func(t *testing.T) {
			structured := simerr.New(tc.err, 123, "machine", 0, "synthetic %s", tc.name)

			// Surface 1: the structured error itself.
			if !errors.Is(structured, tc.err) {
				t.Fatalf("simerr.Error does not match its own sentinel %v", tc.err)
			}
			var se *simerr.Error
			if !errors.As(structured, &se) || se.Cycle != 123 {
				t.Fatalf("errors.As lost the structured diagnostic: %+v", se)
			}

			// Surface 2: the facade's Run wrapping.
			wrapped := fmt.Errorf("cohesion: heat on scaled-16c: %w", structured)
			if !errors.Is(wrapped, tc.err) {
				t.Fatalf("Run-style wrapping broke errors.Is for %v", tc.err)
			}

			// Surface 3: sweep aggregation over many cells.
			sweep := &SweepError{Total: 3, Cells: []CellFailure{
				{Index: 0, Kernel: "heat", Config: "SWcc", Err: errors.New("unrelated")},
				{Index: 2, Kernel: "fft", Config: "HWcc", Err: wrapped},
			}}
			if !errors.Is(sweep, tc.err) {
				t.Fatalf("SweepError does not surface %v from a cell", tc.err)
			}
			if !errors.As(sweep, &se) || se.Cycle != 123 {
				t.Fatalf("SweepError lost the structured cell error")
			}

			// Surface 4: the fuzzer's failure classifier.
			if got := stress.SentinelOf(structured); got != tc.category {
				t.Fatalf("stress.SentinelOf = %q, want %q", got, tc.category)
			}
			if cat := stress.CategoryOf(structured); !strings.HasPrefix(cat, tc.category) {
				t.Fatalf("stress.CategoryOf = %q, want %q prefix", cat, tc.category)
			}
		})
	}

	// Surface 5: pool panic containment produces the panic sentinel.
	_, errs := pool.MapCatch(2, 2, func(i int) (int, error) {
		if i == 1 {
			panic("matrix boom")
		}
		return i, nil
	})
	if !errors.Is(errs[1], ErrRunPanicked) {
		t.Fatalf("contained pool panic = %v, want ErrRunPanicked", errs[1])
	}
	if got := stress.SentinelOf(errs[1]); got != "panic" {
		t.Fatalf("SentinelOf(contained panic) = %q, want panic", got)
	}
}

// TestScalingStudyDegradesLikeFigures: the scaling study runs through the
// same runner as the figures, so a canceled context fails every point
// fast, and a panicked point is contained and leaves every other point
// equal to a clean run.
func TestScalingStudyDegradesLikeFigures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := ScalingStudy(ExpParams{Ctx: ctx, Parallel: 2}, "heat", []int{2, 4})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled scaling study error = %v, want ErrCanceled", err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d points, want 6", len(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r.Failed, "failed(") || r.Cycles != 0 {
			t.Fatalf("point %s@%d not marked failed under cancellation: %+v", r.Config, r.Clusters, r)
		}
	}

	defer func() { runForTest = nil }()
	runForTest = func(job runJob) (*Result, error) {
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	clean, err := ScalingStudy(ExpParams{Parallel: 1}, "heat", []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	runForTest = func(job runJob) (*Result, error) {
		if job.name == "HWcc@4" {
			panic("injected point panic")
		}
		return fakeCellResult(job.rc.Kernel, job.name), nil
	}
	degraded, err := ScalingStudy(ExpParams{Parallel: 4}, "heat", []int{2, 4})
	if !errors.Is(err, ErrRunPanicked) {
		t.Fatalf("scaling study error = %v, want ErrRunPanicked", err)
	}
	for i := range clean {
		if degraded[i].Config == "HWcc" && degraded[i].Clusters == 4 {
			if !strings.HasPrefix(degraded[i].Failed, "failed(") {
				t.Fatalf("panicked point not marked failed: %+v", degraded[i])
			}
			continue
		}
		if !reflect.DeepEqual(clean[i], degraded[i]) {
			t.Fatalf("point %d perturbed by the panicked one:\nclean    %+v\ndegraded %+v", i, clean[i], degraded[i])
		}
	}
}
