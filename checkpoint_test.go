package cohesion

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cohesion/internal/snapshot"
)

// ckptConfig is the small machine the checkpoint tests run on.
func ckptConfig(mode Mode) MachineConfig {
	cfg := ScaledConfig(2).WithMode(mode)
	if mode != SWcc {
		cfg = cfg.WithDirectory(DirInfinite, 0, 0)
	}
	return cfg
}

// TestResumeBitIdenticalAllKernels is the acceptance criterion: for all
// eight kernels (modes rotated), a run interrupted at three interior
// event counts and resumed from its snapshot produces a bit-identical
// memory fingerprint, Stats, and edge-coverage set to the run executed
// straight through. Every kernel also runs in HWcc and Cohesion on a
// 16-entry, 2-way sparse directory (the dir16x2 cells), where entries are
// replaced under pressure; each of its HWcc cells must evict, so the
// case cannot stop exercising evictions unnoticed.
func TestResumeBitIdenticalAllKernels(t *testing.T) {
	type cell struct {
		name    string
		kernel  string
		machine MachineConfig
	}
	var cells []cell
	modes := []Mode{Cohesion, HWcc, SWcc}
	for i, kernel := range KernelNames() {
		mode := modes[i%len(modes)]
		cells = append(cells, cell{fmt.Sprintf("%s_%v", kernel, mode), kernel, ckptConfig(mode)})
		for _, mode := range []Mode{HWcc, Cohesion} {
			cells = append(cells, cell{fmt.Sprintf("%s_%v_dir16x2", kernel, mode), kernel,
				ScaledConfig(2).WithMode(mode).WithDirectory(DirSparse, 16, 2)})
		}
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			rc := RunConfig{
				Machine: c.machine,
				Kernel:  c.kernel,
				Scale:   1,
				Seed:    42,
				Verify:  true,
			}
			report, err := selfCheckResume(context.Background(), rc, 3, t.TempDir())
			if err != nil {
				t.Fatalf("selfCheckResume: %v", err)
			}
			if report.diverged {
				t.Fatalf("diverged at depth %d, first event %d, layers %v",
					report.divergentDepth, report.firstEvent, report.layers)
			}
			if report.resumed != len(report.depths) || len(report.depths) < 3 {
				t.Fatalf("resumed %d of depths %v, want at least 3 clean resumes", report.resumed, report.depths)
			}
			if c.machine.Mode == HWcc && c.machine.Directory == DirSparse && report.dirEvictions == 0 {
				t.Fatal("no directory entry was evicted on the 16-entry directory")
			}
		})
	}
}

// TestResumeFromPeriodicCheckpoint interrupts nothing: it lets a
// checkpointed run finish, then resumes from the last periodic snapshot
// and compares against the completed run, protocol trace included.
func TestResumeFromPeriodicCheckpoint(t *testing.T) {
	rc := RunConfig{Machine: ckptConfig(Cohesion), Kernel: "heat", Scale: 1, Seed: 7, Verify: true,
		TraceSink: NewTraceSink(0)}
	path := filepath.Join(t.TempDir(), "run.ckpt")

	straight, err := RunWithCheckpoints(context.Background(), rc, CheckpointConfig{Path: path, Every: 3_000})
	if err != nil {
		t.Fatalf("RunWithCheckpoints: %v", err)
	}
	sink := NewTraceSink(0)
	res, info, err := ResumeRun(context.Background(), path, ResumeOptions{TraceSink: sink})
	if err != nil {
		t.Fatalf("ResumeRun: %v", err)
	}
	if info.Events == 0 || info.Events%3_000 != 0 {
		t.Fatalf("resumed from event %d, want a periodic multiple of 3000", info.Events)
	}
	if res.MemFingerprint != straight.MemFingerprint {
		t.Fatalf("fingerprint %#x vs %#x", res.MemFingerprint, straight.MemFingerprint)
	}
	if got, want := res.Stats.Digest(), straight.Stats.Digest(); got != want {
		t.Fatalf("stats digest %#x vs %#x", got, want)
	}
	if !reflect.DeepEqual(res.Stats.Counters, straight.Stats.Counters) {
		t.Fatal("counters differ")
	}
	if sink.Total() == 0 || !reflect.DeepEqual(sink.Records(), rc.TraceSink.Records()) {
		t.Fatalf("resumed run traced %d records, straight run %d: want the same records", sink.Total(), rc.TraceSink.Total())
	}
}

// TestResumeAfterTornWrite simulates a SIGKILL mid-snapshot-write: a
// valid committed snapshot with a torn staged temp file next to it. The
// resume must fall back to the committed snapshot and still reproduce
// the straight-through run bit-for-bit.
func TestResumeAfterTornWrite(t *testing.T) {
	rc := RunConfig{Machine: ckptConfig(HWcc), Kernel: "stencil", Scale: 1, Seed: 11, Verify: true}
	path := filepath.Join(t.TempDir(), "run.ckpt")

	interrupted := rc
	interrupted.Limits = RunLimits{MaxEvents: 4_000}
	if _, err := RunWithCheckpoints(context.Background(), interrupted, CheckpointConfig{Path: path}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("interrupted run: %v, want ErrBudgetExhausted", err)
	}
	// A later write killed partway through: garbage in the staging file.
	if err := os.WriteFile(snapshot.TmpPath(path), []byte(`{"magic":"cohesion-snap`), 0o644); err != nil {
		t.Fatal(err)
	}

	straight, err := RunCtx(context.Background(), rc)
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	res, info, err := ResumeRun(context.Background(), path, ResumeOptions{})
	if err != nil {
		t.Fatalf("ResumeRun after torn write: %v", err)
	}
	if info.Source != path || info.Events != 4_000 {
		t.Fatalf("resumed from %s at event %d, want the committed snapshot at 4000", info.Source, info.Events)
	}
	if res.MemFingerprint != straight.MemFingerprint {
		t.Fatalf("fingerprint %#x vs %#x", res.MemFingerprint, straight.MemFingerprint)
	}
}

// TestResumeDetectsDivergence corrupts the replayed digest vector via
// the test seam and asserts the resume refuses to continue, naming the
// corrupted layer.
func TestResumeDetectsDivergence(t *testing.T) {
	rc := RunConfig{Machine: ckptConfig(Cohesion), Kernel: "sobel", Scale: 1, Seed: 3}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupted := rc
	interrupted.Limits = RunLimits{MaxEvents: 3_000}
	if _, err := RunWithCheckpoints(context.Background(), interrupted, CheckpointConfig{Path: path}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("interrupted run: %v, want ErrBudgetExhausted", err)
	}

	testDigestPerturb = func(d *snapshot.Digests) { d.Mem ^= 1 }
	defer func() { testDigestPerturb = nil }()

	_, _, err := ResumeRun(context.Background(), path, ResumeOptions{})
	if !errors.Is(err, snapshot.ErrDiverged) {
		t.Fatalf("ResumeRun = %v, want ErrDiverged", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("ResumeRun error %T, want *DivergenceError", err)
	}
	if de.Events != 3_000 || len(de.Layers) != 1 || de.Layers[0][:3] != "mem" {
		t.Fatalf("divergence = %+v, want the mem layer at event 3000", de)
	}
}

// TestRunCheckpointIsDigestOnly pins the size of a run checkpoint: it
// records the spec and the digest vector, not the machine, so a
// checkpoint of a large machine stays about a kilobyte of JSON. The size
// does not depend on the event count, so the run stops early; the stop
// writes the last checkpoint.
func TestRunCheckpointIsDigestOnly(t *testing.T) {
	rc := RunConfig{Machine: ScaledConfig(8).WithMode(Cohesion), Kernel: "heat", Scale: 8, Seed: 1, Verify: true,
		Limits: RunLimits{MaxEvents: 50_000}}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := RunWithCheckpoints(context.Background(), rc, CheckpointConfig{Path: path, Every: 25_000}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("RunWithCheckpoints: %v, want ErrBudgetExhausted", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() >= 4<<10 {
		t.Fatalf("checkpoint is %d bytes, want under 4 KiB", st.Size())
	}
}

// TestResumeRefusesPreDigestSnapshot writes a run checkpoint in the
// older full-state shape ({spec, events, cycle, state}: no digest vector
// and no digest scheme). ResumeRun must refuse it by name without
// claiming a divergence, and the job engine must fall back to a fresh
// run.
func TestResumeRefusesPreDigestSnapshot(t *testing.T) {
	ctx := context.Background()
	spec := JobSpec{Kernel: "heat", Mode: "cohesion", Verify: true}
	rc, err := specRunConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := map[string]any{
		"spec":   specOf(rc),
		"events": 2_000,
		"cycle":  1_500,
		"state": map[string]any{
			"mem":   []any{map[string]any{"line": 4096, "data": []uint32{1, 2, 3, 4, 5, 6, 7, 8}}},
			"l2":    []any{map[string]any{"cluster": 0, "line": 4096, "state": 1, "valid_mask": 255}},
			"stats": map[string]any{"events": 2_000},
		},
	}
	path := filepath.Join(t.TempDir(), "job.ckpt")
	if err := snapshot.WriteAtomic(path, snapshot.KindRun, 2_000, old); err != nil {
		t.Fatal(err)
	}

	_, info, err := ResumeRun(ctx, path, ResumeOptions{})
	if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "was not written under this build's digest scheme") {
		t.Fatalf("ResumeRun on a full-state snapshot = %v, want a digest-scheme refusal", err)
	}
	if info != nil {
		t.Fatalf("ResumeRun returned info %+v for an unusable snapshot, want nil", info)
	}

	out, resumed, err := jobEngine{}.Execute(ctx, spec, path, 0, RunLimits{}, true)
	if err != nil || resumed {
		t.Fatalf("Execute(resume) = resumed %v, err %v; want a fresh run", resumed, err)
	}
	ref, err := RunCtx(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%#016x", ref.MemFingerprint); out.MemFingerprint != want {
		t.Fatalf("fresh-run fingerprint %s, want %s", out.MemFingerprint, want)
	}
}

// TestResumeRejectsStaleBudget asserts a resume with an event budget at
// or below the snapshot point fails fast instead of replaying to an end
// before the resume point.
func TestResumeRejectsStaleBudget(t *testing.T) {
	rc := RunConfig{Machine: ckptConfig(HWcc), Kernel: "heat", Scale: 1, Seed: 5}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupted := rc
	interrupted.Limits = RunLimits{MaxEvents: 2_000}
	if _, err := RunWithCheckpoints(context.Background(), interrupted, CheckpointConfig{Path: path}); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("interrupted run: %v, want ErrBudgetExhausted", err)
	}
	if _, _, err := ResumeRun(context.Background(), path, ResumeOptions{Limits: RunLimits{MaxEvents: 2_000}}); err == nil {
		t.Fatal("ResumeRun with a stale budget: want error")
	}
	// A budget past the snapshot point resumes and stops at the budget,
	// writing a fresh snapshot there for the next resume.
	res, _, err := ResumeRun(context.Background(), path, ResumeOptions{Limits: RunLimits{MaxEvents: 3_500}})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("ResumeRun to 3500 = %v, want ErrBudgetExhausted", err)
	}
	if res == nil || res.Stats.Events != 3_500 {
		t.Fatalf("partial resume result = %+v, want 3500 events", res)
	}
	var snap RunSnapshot
	env, _, lerr := snapshot.LoadRecover(path, snapshot.KindRun, &snap)
	if lerr != nil || env.Seq != 3_500 {
		t.Fatalf("snapshot after budgeted resume: seq %d err %v, want 3500", env.Seq, lerr)
	}
}
