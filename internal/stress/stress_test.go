package stress

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"cohesion/internal/simerr"
	"cohesion/internal/trace"
)

// opCount is the total schedule length of a program.
func opCount(p Program) int {
	n := 0
	for _, c := range p.Cores {
		n += len(c.Ops)
	}
	return n
}

func TestGenerateDeterministic(t *testing.T) {
	for _, mode := range []string{"hwcc", "swcc", "cohesion"} {
		a, err := Generate(Config{Seed: 42, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(Config{Seed: 42, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("mode %s: same seed generated different programs", mode)
		}
		c, err := Generate(Config{Seed: 43, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Cores, c.Cores) {
			t.Errorf("mode %s: different seeds generated identical schedules", mode)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	p, err := Generate(Config{Seed: 7, Mode: "cohesion", Clusters: 2, OpsPerCore: 60})
	if err != nil {
		t.Fatal(err)
	}
	r1 := RunProgram(p)
	r2 := RunProgram(p)
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("clean program failed: %v / %v", r1.Err, r2.Err)
	}
	if r1.Cycles != r2.Cycles || r1.Fingerprint != r2.Fingerprint {
		t.Errorf("nondeterministic run: cycles %d vs %d, fingerprint %#x vs %#x",
			r1.Cycles, r2.Cycles, r1.Fingerprint, r2.Fingerprint)
	}
	if r1.Checks == 0 {
		t.Error("oracle performed no checks during a stress run")
	}
}

// TestPoolRoundTotals pins one round of the bench fuzz pool. Events,
// cycles and oracle checks are the determinism witnesses, the same totals
// as when each op parked its core. Resumes pin the batching:
// a program parks once per batch of ops, so each of its 8 cores resumes
// twice (at its start and once its first 65 ops have drained), where
// parking at every op resumed 38,880 times.
func TestPoolRoundTotals(t *testing.T) {
	got := runPoolRound(t)
	want := Result{Events: 167_595, Cycles: 1_549_353, Checks: 56_695, Resumes: 960}
	if got != want {
		t.Fatalf("pool round totals %+v, want %+v", got, want)
	}
}

func TestFuzzSmoke(t *testing.T) {
	modes := []string{"cohesion", "hwcc", "swcc"}
	for i := 0; i < 24; i++ {
		cfg := Config{Seed: int64(1000 + i*137), Mode: modes[i%3], OpsPerCore: 50}
		if i%4 == 3 {
			cfg.Faults = true
			cfg.FaultSeed = int64(i)
		}
		p, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := RunProgram(p)
		if res.Err != nil {
			t.Errorf("seed %d mode %s faults=%v: %v", cfg.Seed, cfg.Mode, cfg.Faults, res.Err)
		}
	}
}

func TestCorruptionDetectedAndReproRoundTrip(t *testing.T) {
	p, err := Generate(Config{Seed: 5, Mode: "cohesion", InjectCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	res := RunProgram(p)
	if res.Err == nil {
		t.Fatal("planted corruption was not detected")
	}
	if !errors.Is(res.Err, simerr.ErrProtocolInvariant) {
		t.Fatalf("corruption surfaced as %v, want ErrProtocolInvariant", res.Err)
	}
	cat := CategoryOf(res.Err)
	if cat != "protocol-invariant/corrupt uncached load" {
		t.Fatalf("category = %q, want protocol-invariant/corrupt uncached load", cat)
	}
	// The corrupting write lands when the op before it completes, so the
	// uncached load behind it fails at the same event and cycle as when
	// every op parked its core.
	if res.Events != 1_727 || res.Cycles != 2_345 {
		t.Fatalf("corruption caught at event %d, cycle %d; want event 1727, cycle 2345", res.Events, res.Cycles)
	}
	r, _, _ := Capture(p)
	if r.Category != cat {
		t.Fatalf("captured repro category = %q, want %q", r.Category, cat)
	}
	if n := len(r.Trace); n < 1 || n > trace.TailRecords {
		t.Errorf("repro carries %d trace records, want 1 to %d", n, trace.TailRecords)
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Program, p) {
		t.Error("repro program did not survive the JSON round trip")
	}
	if back.Category != cat {
		t.Errorf("repro category = %q, want %q", back.Category, cat)
	}
	res2, same := Replay(back)
	if !same {
		t.Fatalf("replay did not reproduce: got %v", res2.Err)
	}
}

// TestTracingDoesNotPerturbRun: a trace sink only observes. In each mode,
// with faults, a program run bare and run with a sink must agree on every
// determinism witness and on how it ended; Capture relies on this.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	for i, mode := range []string{"hwcc", "swcc", "cohesion"} {
		p, err := Generate(Config{Seed: int64(31 + i), Mode: mode, OpsPerCore: 60, Faults: true, FaultSeed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		bare := RunProgramOpts(p, RunOpts{})
		sink := trace.NewSink(0)
		traced := RunProgramOpts(p, RunOpts{Sink: sink})
		if sink.Total() == 0 {
			t.Errorf("mode %s: traced run recorded nothing", mode)
		}
		if bare.Events != traced.Events || bare.Cycles != traced.Cycles || bare.Fingerprint != traced.Fingerprint ||
			bare.Checks != traced.Checks || CategoryOf(bare.Err) != CategoryOf(traced.Err) {
			t.Errorf("mode %s: tracing perturbed the run: bare %+v, traced %+v", mode, bare, traced)
		}
	}
}

// TestUntracedRunFormatsNothing: recording a step formats nothing, so a
// traced run allocates only the sink and its ring's growth (at most 32
// allocations) more than a bare one.
func TestUntracedRunFormatsNothing(t *testing.T) {
	p, err := Generate(Config{Seed: 7, Mode: "cohesion", OpsPerCore: 60})
	if err != nil {
		t.Fatal(err)
	}
	bare := testing.AllocsPerRun(3, func() { RunProgramOpts(p, RunOpts{}) })
	var records uint64
	traced := testing.AllocsPerRun(3, func() {
		sink := trace.NewSink(0)
		RunProgramOpts(p, RunOpts{Sink: sink})
		records = sink.Total()
	})
	t.Logf("bare run %.0f allocations, traced run %.0f for %d records", bare, traced, records)
	if records == 0 || traced > bare+32 {
		t.Errorf("traced run made %.0f allocations for %d records, bare run %.0f: want at most 32 more",
			traced, records, bare)
	}
}

func TestShrinkYieldsSmallerFailingProgram(t *testing.T) {
	p, err := Generate(Config{Seed: 9, Mode: "cohesion", InjectCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	res := RunProgram(p)
	if res.Err == nil {
		t.Fatal("planted corruption was not detected")
	}
	cat := CategoryOf(res.Err)
	q, runs := Shrink(p, cat, 300)
	if runs == 0 {
		t.Fatal("shrinker did not run any candidates")
	}
	if opCount(q) >= opCount(p) {
		t.Errorf("shrunk program has %d ops, original %d — not strictly smaller", opCount(q), opCount(p))
	}
	res2 := RunProgram(q)
	if CategoryOf(res2.Err) != cat {
		t.Errorf("shrunk program fails as %q, want %q", CategoryOf(res2.Err), cat)
	}
	// The corruption motif is 3 ops on one core; the shrinker should get
	// close to that.
	if opCount(q) > 12 {
		t.Errorf("shrunk program still has %d ops, expected a near-minimal schedule", opCount(q))
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad mode", Config{Mode: "msi"}},
		{"clusters high", Config{Mode: "hwcc", Clusters: 65}},
		{"lines high", Config{Mode: "hwcc", Lines: 5000}},
		{"ops high", Config{Mode: "hwcc", OpsPerCore: 2_000_000}},
		{"workers high", Config{Mode: "hwcc", WorkersPerCluster: 9}},
	}
	for _, tc := range cases {
		cfg := tc.cfg.WithDefaults()
		err := cfg.Validate()
		if !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("%s: Validate = %v, want ErrConfig", tc.name, err)
		}
		if _, err := Generate(tc.cfg); !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("%s: Generate = %v, want ErrConfig", tc.name, err)
		}
	}
}

// machineSink keeps the machines TestBuildMachineCostsWhatItHolds builds
// on the heap.
var machineSink any

// TestBuildMachineCostsWhatItHolds holds the construction of a default
// fuzz machine to its footprint, in every mode: a few allocations per
// cache, directory bank and event queue, not one per set, no wheel slot
// headers sized by the horizon, no L1s or continuation funcs on a core
// before it starts, and no L3 set before a line reaches it.
func TestBuildMachineCostsWhatItHolds(t *testing.T) {
	const runs = 5
	for _, mode := range []string{"hwcc", "swcc", "cohesion"} {
		cfg := Config{Mode: mode}.WithDefaults()
		build := func() {
			m, err := BuildMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			machineSink = m
		}
		build() // warm-up: one-time tables outside the machine
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: BuildMachine allocated %d bytes in %d allocations", mode, bytes, allocs)
		if bytes >= 64<<10 || allocs >= 100 {
			t.Errorf("%s: BuildMachine allocated %d bytes in %d allocations, want under 64 KiB and 100", mode, bytes, allocs)
		}
	}
}
