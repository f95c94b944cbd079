package cohesion

import (
	"reflect"
	"testing"
)

// TestParallelFanoutDeterminism is the contract of the parallel experiment
// harness: the same figure regenerated serially (Parallel=1) and with
// several host goroutines must produce bit-identical tables. Each
// simulation owns all of its mutable state (event queue, memory store,
// instance PRNGs) and results are slotted by job index, so worker count
// and completion order must not be observable in any output.
func TestParallelFanoutDeterminism(t *testing.T) {
	base := ExpParams{Clusters: 2, Workers: 4, Scale: 1, Seed: 42,
		Kernels: []string{"heat", "cg"}, DirSizes: []int{32, 128}}

	serial, parallel := base, base
	serial.Parallel = 1
	parallel.Parallel = 4

	type figure struct {
		name string
		run  func(ExpParams) (any, error)
	}
	figures := []figure{
		{"Fig2", func(p ExpParams) (any, error) { return Fig2(p) }},
		{"Fig3", func(p ExpParams) (any, error) { return Fig3(p) }},
		{"Fig8", func(p ExpParams) (any, error) { return Fig8(p) }},
		{"Fig9a", func(p ExpParams) (any, error) { return Fig9Sweep(p, HWcc) }},
		{"Fig9b", func(p ExpParams) (any, error) { return Fig9Sweep(p, Cohesion) }},
		{"Fig9c", func(p ExpParams) (any, error) { return Fig9c(p) }},
		{"Fig10", func(p ExpParams) (any, error) { return Fig10(p) }},
		{"HeadlineSummary", func(p ExpParams) (any, error) { return HeadlineSummary(p) }},
		{"LatencyTable", func(p ExpParams) (any, error) { return LatencyTable(p) }},
		{"ScalingStudy", func(p ExpParams) (any, error) { return ScalingStudy(p, "heat", []int{1, 2}) }},
	}
	for _, f := range figures {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			want, err := f.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.run(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("parallel table differs from serial:\nserial:   %+v\nparallel: %+v", want, got)
			}
		})
	}
}

// TestParallelRunsIsolated runs the same configuration on several
// goroutines at once and checks every copy produces the serial run's
// fingerprint, cycle count, and message total — catching any shared
// mutable state between concurrent simulations (best run with -race).
func TestParallelRunsIsolated(t *testing.T) {
	rc := RunConfig{
		Machine: ScaledConfig(2).WithMode(Cohesion),
		Kernel:  "heat",
		Scale:   1,
		Seed:    42,
		Verify:  true,
	}
	want, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	const copies = 4
	results := make([]*Result, copies)
	errs := make([]error, copies)
	done := make(chan int, copies)
	for i := 0; i < copies; i++ {
		go func(i int) {
			results[i], errs[i] = Run(rc)
			done <- i
		}(i)
	}
	for i := 0; i < copies; i++ {
		<-done
	}
	for i := 0; i < copies; i++ {
		if errs[i] != nil {
			t.Fatalf("copy %d: %v", i, errs[i])
		}
		r := results[i]
		if r.MemFingerprint != want.MemFingerprint || r.Cycles() != want.Cycles() ||
			r.TotalMessages() != want.TotalMessages() {
			t.Errorf("copy %d diverged: fingerprint %#x/%#x cycles %d/%d messages %d/%d",
				i, r.MemFingerprint, want.MemFingerprint, r.Cycles(), want.Cycles(),
				r.TotalMessages(), want.TotalMessages())
		}
	}
}
