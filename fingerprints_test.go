package cohesion

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"cohesion/internal/pool"
	"cohesion/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

const (
	fingerprintsFile = "testdata/fingerprints.json"
	runsFile         = "testdata/runs.json"
	resumesFile      = "testdata/resumes.json"
)

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

// goldenMatrix runs the golden matrix once per test binary and returns
// each cell's result keyed "kernel/Mode"; every golden-file test below
// reads its own quantity from the same 24 runs.
var goldenMatrix = sync.OnceValues(func() (map[string]*Result, error) {
	runs := fingerprintRuns()
	results, errs := pool.MapCatch(len(runs), 0, func(i int) (*Result, error) {
		r := runs[i]
		res, err := Run(RunConfig{
			Machine: ScaledConfig(2).WithMode(r.Mode),
			Kernel:  r.Kernel,
			Scale:   1,
			Seed:    42,
			Verify:  true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%v: %w", r.Kernel, r.Mode, err)
		}
		return res, nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*Result, len(runs))
	for i, r := range runs {
		out[fmt.Sprintf("%s/%v", r.Kernel, r.Mode)] = results[i]
	}
	return out, nil
})

// goldenValues maps every golden cell to the quantity f reads from it.
func goldenValues[V any](t *testing.T, f func(*Result) V) map[string]V {
	t.Helper()
	results, err := goldenMatrix()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]V, len(results))
	for k, res := range results {
		got[k] = f(res)
	}
	return got
}

// checkGolden diffs got against the JSON golden file, or rewrites the
// file under -update. what names the pinned quantity and test the test
// that blesses it, for the failure message.
func checkGolden[V comparable](t *testing.T, file, what, test string, got map[string]V) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), file)
		return
	}

	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]V{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	var diffs []string
	for k, w := range want {
		switch g, ok := got[k]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("  %-16s missing from this run", k))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("  %-16s golden %+v, got %+v", k, w, g))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("  %-16s not in golden file", k))
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 0 {
		t.Fatalf("%s diverged from %s (%d of %d):\n%s\n"+
			"if the change is intentional, bless it with: go test -run %s -update .",
			what, file, len(diffs), len(want), joinLines(diffs), test)
	}
}

// TestGoldenFingerprints diffs the kernel x mode memory-fingerprint
// matrix against testdata/fingerprints.json. The fingerprint hashes every
// word of simulated memory after the run drains, so any change to
// protocol behavior, timing that alters data movement, or the kernels
// themselves shows up here — while pure observability (tracing, metrics,
// coverage) must not. Run with -update to bless a new golden file after
// an intentional change.
func TestGoldenFingerprints(t *testing.T) {
	got := goldenValues(t, func(r *Result) string { return fmt.Sprintf("%#016x", r.MemFingerprint) })
	checkGolden(t, fingerprintsFile, "memory fingerprints", "TestGoldenFingerprints", got)
}

// goldenRun is what testdata/runs.json pins per cell: the shape of the
// whole run, so a change that moves timing or traffic but leaves the final
// memory image alone still fails.
type goldenRun struct {
	Events   uint64 `json:"events"`
	Cycles   uint64 `json:"cycles"`
	Messages uint64 `json:"messages"`
	Digest   string `json:"digest"` // Stats.Digest(): every cumulative counter
}

// TestGoldenRuns diffs each golden cell's event count, cycle count, total
// messages and stats digest against testdata/runs.json. Host-side changes
// (how programs reach the machine, how the machine is built) must leave
// every value unchanged.
func TestGoldenRuns(t *testing.T) {
	got := goldenValues(t, func(r *Result) goldenRun {
		return goldenRun{
			Events:   r.Stats.Events,
			Cycles:   r.Cycles(),
			Messages: r.TotalMessages(),
			Digest:   fmt.Sprintf("%#016x", r.Stats.Digest()),
		}
	})
	checkGolden(t, runsFile, "run shapes", "TestGoldenRuns", got)
}

// TestGoldenResumes pins each golden cell's count of core coroutine
// resumes (stats.Run.Resumes), the host work of handing the machine's
// results back to the kernels' programs. The count is exact, so any
// change to how programs batch their operations shows here; regenerate
// testdata/resumes.json with -update only in a change that says why the
// count moved.
func TestGoldenResumes(t *testing.T) {
	got := goldenValues(t, func(r *Result) uint64 { return r.Stats.Resumes })
	checkGolden(t, resumesFile, "coroutine resume counts", "TestGoldenResumes", got)
}

// TestTraceOnlyLine: a traced heat run whose sink keeps one line records
// exactly the records an unfiltered run records for that line, in the same
// order, and at least one.
func TestTraceOnlyLine(t *testing.T) {
	rc := RunConfig{Machine: ScaledConfig(2).WithMode(Cohesion), Kernel: "heat", Scale: 1, Seed: 42}
	rc.TraceSink = NewTraceSink(0)
	if _, err := Run(rc); err != nil {
		t.Fatal(err)
	}
	all := rc.TraceSink.Records()
	if rc.TraceSink.Dropped() != 0 || len(all) == 0 {
		t.Fatalf("unfiltered run kept %d records and dropped %d, want a whole trace", len(all), rc.TraceSink.Dropped())
	}
	line := all[len(all)/2].Line
	var want []trace.Record
	for _, r := range all {
		if r.Line == line {
			want = append(want, r)
		}
	}

	rc.TraceSink = NewTraceSink(0)
	rc.TraceSink.OnlyLine(line)
	if _, err := Run(rc); err != nil {
		t.Fatal(err)
	}
	got := rc.TraceSink.Records()
	t.Logf("line %#x: %d of %d records", line, len(got), len(all))
	if len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("filtered run kept %d records of line %#x, want the unfiltered run's %d, in order", len(got), line, len(want))
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
