package cohesion

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"cohesion/internal/snapshot"
)

// compatDir holds files earlier builds of the simulator wrote: two run
// checkpoints of the same run (heat/Cohesion on ScaledConfig(2), scale 1,
// seed 42, Verify, stopped at 3,000 events), two KindSweep files of
// compatFig3Params' Fig3 (10 cells each: sweep.ckpt under an older
// build's cell keys, sweep-spec.ckpt keyed by RunSpec), and the jobs/
// records of one done and one failed heat/cohesion job. It also holds a
// cohesion-fuzz checkpoint and repro file, which internal/stress and CI
// load. They pin the on-disk formats: a change that stops one of them
// loading changes a format, and must say so. run.ckpt records digests
// over sorted lists, an older digest scheme, so it must be refused and
// rerun; run-orderfree.ckpt records the current scheme and must resume.
const compatDir = "testdata/compat"

// goldenHeatCohesion is the golden heat/Cohesion fingerprint, the end of
// the run both run checkpoints record.
func goldenHeatCohesion(t *testing.T) uint64 {
	t.Helper()
	want, err := strconv.ParseUint(loadGoldenFingerprints(t)["heat/Cohesion"], 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func compatFig3Params() ExpParams {
	return ExpParams{Clusters: 2, Scale: 1, Kernels: []string{"heat", "kmeans"}, Parallel: 1}
}

// copyFixture copies one compat file to dst, so no test writes into
// testdata.
func copyFixture(t *testing.T, name, dst string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(compatDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompatFixturesStillLoad checks that every kind of file an earlier
// build wrote still loads and still means the same thing.
func TestCompatFixturesStillLoad(t *testing.T) {
	ctx := context.Background()

	t.Run("run", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		copyFixture(t, "run.ckpt", path)
		_, info, err := ResumeRun(ctx, path, ResumeOptions{})
		if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, ErrDiverged) || info != nil {
			t.Fatalf("ResumeRun on a sorted-digest checkpoint = info %+v, err %v; want an ErrVersion refusal and no info", info, err)
		}
		spec := JobSpec{Kernel: "heat", Mode: "cohesion", Clusters: 2, Scale: 1, Seed: 42, Verify: true}
		out, resumed, err := jobEngine{}.Execute(ctx, spec, path, 0, RunLimits{}, true)
		if err != nil || resumed {
			t.Fatalf("Execute(resume) = resumed %v, err %v; want a fresh run", resumed, err)
		}
		if want := fmt.Sprintf("%#016x", goldenHeatCohesion(t)); out.MemFingerprint != want {
			t.Fatalf("rerun ended on %s, want the golden heat/Cohesion %s", out.MemFingerprint, want)
		}
	})

	t.Run("run-orderfree", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		copyFixture(t, "run-orderfree.ckpt", path)
		res, info, err := ResumeRun(ctx, path, ResumeOptions{})
		if err != nil {
			t.Fatalf("ResumeRun: %v", err)
		}
		if info.Events != 3_000 {
			t.Fatalf("resumed at event %d, want 3000", info.Events)
		}
		if want := goldenHeatCohesion(t); res.MemFingerprint != want {
			t.Fatalf("resumed run ended on %#x, want the golden heat/Cohesion %#x", res.MemFingerprint, want)
		}
	})

	// sweep.ckpt keys its cells by configuration label and machine
	// digest, as builds before RunSpec keys did: it must load with no
	// cells, serve nothing, and hold only the 10 cells Fig3 records.
	// sweep-spec.ckpt keys them by RunSpec and must serve all 10.
	for _, fx := range []struct {
		name   string
		served int
	}{{"sweep", 0}, {"sweep-spec", 10}} {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			p := compatFig3Params()
			fresh, err := OpenSweepCheckpoint(filepath.Join(dir, "fresh.ckpt"), false)
			if err != nil {
				t.Fatal(err)
			}
			p.Checkpoint = fresh
			freshRows, err := Fig3(p)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "sweep.ckpt")
			copyFixture(t, fx.name+".ckpt", path)
			ck, err := OpenSweepCheckpoint(path, true)
			if err != nil {
				t.Fatalf("OpenSweepCheckpoint: %v", err)
			}
			if ck.Cells() != fx.served {
				t.Fatalf("checkpoint loaded %d cells, want %d", ck.Cells(), fx.served)
			}
			p.Checkpoint = ck
			cached, err := Fig3(p)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Reused() != fx.served {
				t.Fatalf("%d of 10 cells served from the checkpoint, want %d", ck.Reused(), fx.served)
			}
			if ck.Cells() != 10 {
				t.Fatalf("checkpoint holds %d cells after Fig3, want 10", ck.Cells())
			}
			if got, want := FlushEfficiencyCSV(cached), FlushEfficiencyCSV(freshRows); got != want {
				t.Fatalf("table differs from a fresh run:\n%s\nwant:\n%s", got, want)
			}
			if fx.served > 0 && !reflect.DeepEqual(ck.state.Cells, fresh.state.Cells) {
				t.Fatal("cells loaded from the fixture differ from the cells a fresh run records")
			}
			// Another kind's file is refused by kind, not decoded as a run.
			if _, _, err := ResumeRun(ctx, path, ResumeOptions{}); !errors.Is(err, snapshot.ErrKind) {
				t.Fatalf("ResumeRun on a sweep checkpoint = %v, want ErrKind", err)
			}
		})
	}

	t.Run("jobs", func(t *testing.T) {
		state := t.TempDir()
		records := map[string]map[string]any{}
		for id, wantState := range map[string]string{"j-000000": "done", "j-000001": "failed"} {
			name := filepath.Join("jobs", id+".job")
			copyFixture(t, name, filepath.Join(state, name))
			var rec map[string]any
			if _, err := snapshot.Load(filepath.Join(compatDir, name), snapshot.KindJob, &rec); err != nil {
				t.Fatal(err)
			}
			if rec["state"] != wantState {
				t.Fatalf("fixture %s is %v, want %s", id, rec["state"], wantState)
			}
			delete(rec, "revision")
			records[id] = rec
		}
		js, err := NewJobServer(ServeOptions{StateDir: state, Workers: 1})
		if err != nil {
			t.Fatalf("NewJobServer: %v", err)
		}
		defer js.Drain(ctx)
		for id, rec := range records {
			got, ok := js.Job(id)
			if !ok {
				t.Fatalf("job %s not recovered", id)
			}
			// Compare as JSON objects, so a renamed or dropped field shows
			// even though the server and this test share JobView.
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			var view map[string]any
			if err := json.Unmarshal(b, &view); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(view, rec) {
				t.Fatalf("job %s recovered as\n%s\nrecorded as\n%v", id, b, rec)
			}
		}
	})
}
