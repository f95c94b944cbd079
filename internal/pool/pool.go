// Package pool fans independent jobs out across host cores with
// deterministic result ordering. It is the substrate under the experiment
// harness: every figure of the paper's evaluation is a sweep of
// independent simulations, and each simulation is single-threaded and
// self-contained (its own event queue, memory image, and seeded PRNGs),
// so they parallelize perfectly — the only requirement is that results
// come back slotted by job index, never by completion order, so the
// assembled tables are bit-identical at any worker count.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cohesion/internal/simerr"
)

// Workers resolves a requested parallelism: n >= 1 is taken as-is, and
// n <= 0 selects GOMAXPROCS (the -parallel flag's default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs job(i) for every i in [0, n) across at most workers goroutines
// (resolved via Workers). Jobs are claimed from an atomic counter, so the
// assignment of jobs to goroutines is racy — callers must make job(i)
// write only state owned by index i. Do returns when every job has
// finished. With workers <= 1 resolved to 1, jobs run inline on the
// calling goroutine in index order, byte-for-byte the serial harness.
//
// A panic inside a job is captured and re-raised on the calling goroutine
// once all workers have stopped (the lowest-index panic wins, so the
// failure surfaced is deterministic). This keeps simerr-style diagnostic
// panics flowing to the caller exactly as they do in a serial run.
func Do(n, workers int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked = -1
		panicVal any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicked == -1 || i < panicked {
								panicked, panicVal = i, r
							}
							mu.Unlock()
						}
					}()
					job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != -1 {
		panic(panicVal)
	}
}

// PanicError is one job's contained panic: the recovered value, the
// panicking goroutine's stack, and the job index. It matches
// errors.Is(err, simerr.ErrRunPanicked), so supervising layers dispatch
// on it like any other structured run failure.
type PanicError struct {
	Index int    // job index that panicked
	Value any    // recovered panic value
	Stack []byte // stack of the panicking goroutine at recover time
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: job %d panicked: %v\n%s", simerr.ErrRunPanicked, e.Index, e.Value, e.Stack)
}

func (e *PanicError) Unwrap() error { return simerr.ErrRunPanicked }

// MapCatch runs fn(i) for every i in [0, n) across at most workers
// goroutines (resolved via Workers) and returns results and errors
// slotted by index. Every job runs to completion; a panicking job is
// recovered into a *PanicError in its own slot instead of crashing the
// sweep — errs[i] non-nil means out[i] is the zero value and the rest of
// the sweep is untouched. Because failures are slotted (not raced), the
// caller's view is deterministic at any worker count: same jobs ⇒ same
// errs. A caller that wants fail-fast semantics returns the first
// non-nil entry of errs, the lowest-index failure.
func MapCatch[T any](n, workers int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	Do(n, workers, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				out[i], errs[i] = zero, &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		out[i], errs[i] = fn(i)
	})
	return out, errs
}
