package cohesion

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cohesion/internal/pool"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

const fingerprintsFile = "testdata/fingerprints.json"

// fingerprintRuns lists the golden matrix: every kernel under every memory
// model at a fixed small scale. The parameters here are frozen; changing
// them invalidates the golden file.
func fingerprintRuns() []struct {
	Kernel string
	Mode   Mode
} {
	var out []struct {
		Kernel string
		Mode   Mode
	}
	for _, k := range KernelNames() {
		for _, m := range []Mode{SWcc, HWcc, Cohesion} {
			out = append(out, struct {
				Kernel string
				Mode   Mode
			}{k, m})
		}
	}
	return out
}

// TestGoldenFingerprints regenerates the kernel x mode memory-fingerprint
// matrix and diffs it against testdata/fingerprints.json. The fingerprint
// hashes every word of simulated memory after the run drains, so any
// change to protocol behavior, timing that alters data movement, or the
// kernels themselves shows up here — while pure observability (tracing,
// metrics, coverage) must not. Run with -update to bless a new golden
// file after an intentional change.
func TestGoldenFingerprints(t *testing.T) {
	runs := fingerprintRuns()
	type outcome struct {
		key string
		fp  uint64
	}
	results, errs := pool.MapCatch(len(runs), 0, func(i int) (outcome, error) {
		r := runs[i]
		res, err := Run(RunConfig{
			Machine: ScaledConfig(2).WithMode(r.Mode),
			Kernel:  r.Kernel,
			Scale:   1,
			Seed:    42,
			Verify:  true,
		})
		if err != nil {
			return outcome{}, fmt.Errorf("%s/%v: %w", r.Kernel, r.Mode, err)
		}
		return outcome{key: fmt.Sprintf("%s/%v", r.Kernel, r.Mode), fp: res.MemFingerprint}, nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, o := range results {
		got[o.key] = fmt.Sprintf("%#016x", o.fp)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fingerprintsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), fingerprintsFile)
		return
	}

	data, err := os.ReadFile(fingerprintsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	var diffs []string
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch g, ok := got[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("  %-16s missing from this run", k))
		case g != want[k]:
			diffs = append(diffs, fmt.Sprintf("  %-16s golden %s, got %s", k, want[k], g))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("  %-16s not in golden file", k))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("memory fingerprints diverged from %s (%d of %d):\n%s\n"+
			"if the behavior change is intentional, bless it with: go test -run TestGoldenFingerprints -update .",
			fingerprintsFile, len(diffs), len(want), joinLines(diffs))
	}
}

// TestObservabilityDoesNotPerturbSimulation runs the same simulation bare,
// with every observability consumer attached (trace sink, edge coverage,
// metrics), and under armed lifecycle limits. The observers
// and limits only read sim state, so cycles and the memory fingerprint
// must be bit-identical.
func TestObservabilityDoesNotPerturbSimulation(t *testing.T) {
	base := RunConfig{
		Machine: ScaledConfig(2).WithMode(Cohesion),
		Kernel:  "heat",
		Scale:   1,
		Seed:    42,
		Verify:  true,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	instr := base
	instr.TraceSink = NewTraceSink(0)
	instr.Coverage = NewCoverage()
	instr.Metrics = true
	traced, err := Run(instr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MemFingerprint != traced.MemFingerprint {
		t.Fatalf("instrumentation changed the fingerprint: %#x vs %#x",
			plain.MemFingerprint, traced.MemFingerprint)
	}
	if plain.Cycles() != traced.Cycles() {
		t.Fatalf("instrumentation changed the cycle count: %d vs %d",
			plain.Cycles(), traced.Cycles())
	}
	if instr.TraceSink.Total() == 0 {
		t.Fatal("instrumented run recorded no trace events")
	}
	if instr.Coverage.Covered() == 0 {
		t.Fatal("instrumented run marked no edges")
	}
	if traced.Stats.Metrics == nil || traced.Stats.Metrics.MsgLatency[MsgReadReq].Count == 0 {
		t.Fatal("instrumented run collected no latency observations")
	}

	// Lifecycle controls armed but never tripping: a cancelable context and
	// an event budget far beyond the run's length. The budget compare runs
	// every event and the context is polled, but neither may change what
	// the machine computes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	limited := base
	limited.Limits = RunLimits{MaxEvents: 1 << 62}
	armed, err := RunCtx(ctx, limited)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MemFingerprint != armed.MemFingerprint || plain.Cycles() != armed.Cycles() ||
		plain.Stats.Events != armed.Stats.Events {
		t.Fatalf("armed limits perturbed the run: fingerprint %#x vs %#x, cycles %d vs %d, events %d vs %d",
			plain.MemFingerprint, armed.MemFingerprint, plain.Cycles(), armed.Cycles(),
			plain.Stats.Events, armed.Stats.Events)
	}
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}
