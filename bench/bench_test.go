package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cohesion"
	"cohesion/internal/stress"
)

// TestMain runs every test at a tiny size: one short round per workload.
func TestMain(m *testing.M) {
	size = sizes{
		setupReps:      2,
		simClusters:    2,
		sim:            []kernelScale{{"heat", 1}},
		figs:           cohesion.ExpParams{Clusters: 2, Scale: 1, Kernels: []string{"heat"}, DirSizes: []int{32}},
		serveClusters:  2,
		serveScale:     1,
		serveHistory:   4,
		serveBare:      3,
		fuzzRound:      6,
		fuzz:           stress.Config{OpsPerCore: 20},
		resumeClusters: 2,
		resume:         []kernelScale{{"heat", 1}, {"cg", 1}, {"stencil", 1}},
		benchtime:      "1x",
	}
	os.Exit(m.Run())
}

func testOptions(t *testing.T) options {
	return options{seed: 7, work: t.TempDir()}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in the code
// and the benchmark's declared contract identical.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: code has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.name != w.Name || g.unit != w.Unit || g.better != w.Better {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", what, i, g, w)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestWorkloads runs every workload untraced and traced through the same
// code the benchmark runs: every op must pass its checks, every metric
// must be reported with its unit, and end-to-end metrics must be nonzero.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, _ := newWorkload(name)
			res, err := runUntraced(w, testOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("untraced: %d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, s := range endToEnd {
				if m := res.Metrics[s.name]; m.Value <= 0 || m.Unit != s.unit {
					t.Errorf("%s = %+v, want a positive value in %s", s.name, m, s.unit)
				}
			}

			w, _ = newWorkload(name)
			dir := t.TempDir()
			res, err = runTraced(name, w, testOptions(t), dir)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced: %d failed, %d of %d per-layer metrics", res.Failed, len(res.Metrics), len(perLayer))
			}
			for _, f := range []string{".trace.json", ".cpu.pprof", ".metrics.json"} {
				if _, err := os.Stat(dir + "/" + name + f); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCorruptCheckpointCountsAsFailure: a resume of a damaged checkpoint
// is a failed op, and the run goes on.
func TestCorruptCheckpointCountsAsFailure(t *testing.T) {
	afterResumeSetup = func(paths []string) {
		b, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(paths[0], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { afterResumeSetup = nil }()
	res, err := runUntraced(&resumeWL{}, testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted != 6 || res.Correct {
		t.Fatalf("got %d of %d ops failed (correct %v), want 1 of 6", res.Failed, res.Attempted, res.Correct)
	}
}

// TestSpansNest checks self times on a traced pass and the nesting check
// on a span that escapes its parent.
func TestSpansNest(t *testing.T) {
	p := newPass(testOptions(t), newTracer())
	if err := (simWL{}).run(p); err != nil {
		t.Fatal(err)
	}
	p.root.stop()
	self, err := selfTimes(p.tr.spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) < 4*len(p.ops) { // an op span and its three phases
		t.Fatalf("%d spans for %d ops", len(self), len(p.ops))
	}
	for id, d := range self {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}

	bad := []span{
		{ID: 1, Name: "op", Start: 10, End: 20},
		{ID: 2, Parent: 1, Name: "phase", Start: 15, End: 25},
	}
	if _, err := selfTimes(bad); err == nil {
		t.Error("a child outliving its parent passed the nesting check")
	}
	overlap := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Start: 10 * time.Millisecond, End: 60 * time.Millisecond},
		{ID: 3, Parent: 1, Lane: 1, Start: 40 * time.Millisecond, End: 70 * time.Millisecond},
	}
	if self, err := selfTimes(overlap); err != nil || self[1] != 40*time.Millisecond {
		t.Errorf("self time of an op with overlapping children = %v, %v; want 40ms", self[1], err)
	}
}

// TestCPUShares parses a pprof -traces fixture: each stack goes to its
// innermost frame from the module, so encoding/json under
// internal/snapshot counts as snapshot.
func TestCPUShares(t *testing.T) {
	b, err := os.ReadFile("testdata/pprof_traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cpuShares(string(b))
	if err != nil {
		t.Fatal(err)
	}
	const total = 1250.0 // ms in the fixture
	want := map[string]float64{"event": 10, "cache": 1100, "snapshot": 100, "runtime": 20, "linetab": 10, "other": 10}
	sum := 0.0
	for _, b := range cpuBuckets {
		if d := got[b] - 100*want[b]/total; d > 1e-9 || d < -1e-9 {
			t.Errorf("cpu.%s_pct = %v, want %v", b, got[b], 100*want[b]/total)
		}
		sum += got[b]
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %v%%", sum)
	}
}
