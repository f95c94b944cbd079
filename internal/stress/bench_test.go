package stress

import "testing"

// poolRound is one round of the bench fuzz workload: iterations 0 to
// poolRound-1 of its program pool.
const poolRound = 60

// poolConfig derives iteration i of the bench fuzz pool, the way
// cohesion-fuzz and bench/workloads.go derive it: seed 1, modes rotating
// cohesion/hwcc/swcc, fault injection on odd iterations.
func poolConfig(i int) Config {
	return Config{
		Seed:      1 + int64(i)*1_000_003,
		Mode:      []string{"cohesion", "hwcc", "swcc"}[i%3],
		Faults:    i%2 == 1,
		FaultSeed: 1 + int64(i),
	}
}

// runPoolRound generates and runs one round of the pool serially and
// returns the summed results; it fails tb on the first failing program.
func runPoolRound(tb testing.TB) (sum Result) {
	tb.Helper()
	for i := 0; i < poolRound; i++ {
		p, err := Generate(poolConfig(i))
		if err != nil {
			tb.Fatal(err)
		}
		res := RunProgramOpts(p, RunOpts{})
		if res.Err != nil {
			tb.Fatalf("pool iteration %d: %v", i, res.Err)
		}
		sum.Events += res.Events
		sum.Cycles += res.Cycles
		sum.Checks += res.Checks
		sum.Resumes += res.Resumes
	}
	return sum
}

// BenchmarkFuzzRound times one round of the bench fuzz workload run
// serially, generation included: the way to size a change to the fuzz
// path without the bench/ harness.
//
//	go test -run XXX -bench FuzzRound -count 5 ./internal/stress
func BenchmarkFuzzRound(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += runPoolRound(b).Events
	}
	b.ReportMetric(float64(events)/float64(b.N*poolRound), "events/program")
}
