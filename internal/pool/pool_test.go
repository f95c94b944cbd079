package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cohesion/internal/simerr"
)

func TestMapSlotsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		got, errs := MapCatch(100, workers, func(i int) (int, error) { return i * i, nil })
		for i, v := range got {
			if v != i*i || errs[i] != nil {
				t.Fatalf("workers=%d: slot %d = (%d, %v), want (%d, nil)", workers, i, v, errs[i], i*i)
			}
		}
	}
}

func TestSerialAndParallelIdentical(t *testing.T) {
	job := func(i int) (string, error) {
		if i%17 == 5 {
			return "", fmt.Errorf("job %d failed", i)
		}
		return fmt.Sprintf("job-%03d", i*7%13), nil
	}
	serial, serialErrs := MapCatch(200, 1, job)
	parallel, parallelErrs := MapCatch(200, 8, job)
	for i := range serial {
		if serial[i] != parallel[i] || fmt.Sprint(serialErrs[i]) != fmt.Sprint(parallelErrs[i]) {
			t.Fatalf("results diverge at %d: (%q, %v) vs (%q, %v)",
				i, serial[i], serialErrs[i], parallel[i], parallelErrs[i])
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestEveryJobRunsExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	Do(n, 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestMapCatchLowestIndexFailureFirst(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 8} {
		_, errs := MapCatch(100, workers, func(i int) (int, error) {
			switch i {
			case 97:
				return 0, errHigh
			case 13:
				return 0, errLow
			}
			return i, nil
		})
		var first error
		for _, err := range errs {
			if err != nil {
				first = err
				break
			}
		}
		if !errors.Is(first, errLow) || !errors.Is(errs[97], errHigh) {
			t.Fatalf("workers=%d: first error %v, errs[97] %v; want %v then %v", workers, first, errs[97], errLow, errHigh)
		}
	}
}

func TestPanicPropagatesLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r != "boom-3" {
			t.Fatalf("recovered %v, want boom-3", r)
		}
	}()
	Do(10, 4, func(i int) {
		if i == 3 || i == 8 {
			panic(fmt.Sprintf("boom-%d", i))
		}
	})
	t.Fatal("Do did not re-panic")
}

func TestMapCatchContainsPanics(t *testing.T) {
	errPlain := errors.New("plain failure")
	for _, workers := range []int{1, 4} {
		out, errs := MapCatch(10, workers, func(i int) (int, error) {
			switch i {
			case 3:
				panic("boom-3")
			case 6:
				return 0, errPlain
			}
			return i * 10, nil
		})
		for i := 0; i < 10; i++ {
			switch i {
			case 3:
				var pe *PanicError
				if !errors.As(errs[3], &pe) {
					t.Fatalf("workers=%d: errs[3] = %v, want *PanicError", workers, errs[3])
				}
				if pe.Index != 3 || pe.Value != "boom-3" || len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: PanicError missing context: %+v", workers, pe)
				}
				if !errors.Is(errs[3], simerr.ErrRunPanicked) {
					t.Fatalf("workers=%d: contained panic does not match ErrRunPanicked", workers)
				}
			case 6:
				if !errors.Is(errs[6], errPlain) {
					t.Fatalf("workers=%d: errs[6] = %v, want plain error", workers, errs[6])
				}
			default:
				if errs[i] != nil || out[i] != i*10 {
					t.Fatalf("workers=%d: slot %d perturbed by contained failures: out=%d errs=%v",
						workers, i, out[i], errs[i])
				}
			}
		}
	}
}

func TestZeroJobs(t *testing.T) {
	ran := false
	Do(0, 4, func(int) { ran = true })
	if ran {
		t.Fatal("job ran for n=0")
	}
	if out, errs := MapCatch(0, 4, func(i int) (int, error) { return i, nil }); len(out) != 0 || len(errs) != 0 {
		t.Fatalf("MapCatch(0) returned %d results and %d errors", len(out), len(errs))
	}
}
