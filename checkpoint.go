package cohesion

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"cohesion/internal/snapshot"
	"cohesion/internal/stats"
)

// RunSpec is the serializable description of one simulation — everything
// needed to rebuild the identical machine and workload. It is recorded
// in every run snapshot so a resume can reconstruct the run without the
// original command line.
type RunSpec struct {
	Machine   MachineConfig `json:"machine"`
	Kernel    string        `json:"kernel"`
	Scale     int           `json:"scale"`
	Seed      int64         `json:"seed"`
	Workers   int           `json:"workers"`
	Verify    bool          `json:"verify"`
	MaxCycles uint64        `json:"max_cycles,omitempty"`
}

// specOf extracts the reproducible subset of a RunConfig (limits and
// observability attachments are per-process choices, not run identity).
func specOf(rc RunConfig) RunSpec {
	return RunSpec{
		Machine:   rc.Machine,
		Kernel:    rc.Kernel,
		Scale:     rc.Scale,
		Seed:      rc.Seed,
		Workers:   rc.Workers,
		Verify:    rc.Verify,
		MaxCycles: rc.MaxCycles,
	}
}

// runConfig rebuilds a RunConfig from the spec.
func (s RunSpec) runConfig() RunConfig {
	return RunConfig{
		Machine:   s.Machine,
		Kernel:    s.Kernel,
		Scale:     s.Scale,
		Seed:      s.Seed,
		Workers:   s.Workers,
		Verify:    s.Verify,
		MaxCycles: s.MaxCycles,
	}
}

// RunSnapshot is the payload of a KindRun snapshot file: the run's spec
// and the per-layer digest vector at the checkpoint, which carries its
// exact executed-event count and cycle — all that a resume verifies.
//
// Resume follows the verified-deterministic-replay contract (see the
// internal/snapshot package doc): the event queue holds closures and
// core programs are goroutines parked in their next operation, so
// neither continuations nor data state are serialized. Instead ResumeRun
// rebuilds the machine from Spec, replays deterministically to
// Digests.Events, verifies every layer digest, and only then continues —
// so a resumed run is provably bit-identical to an uninterrupted one,
// and any divergence is caught at the resume point and named by layer.
type RunSnapshot struct {
	Spec    RunSpec           `json:"spec"`
	Digests *snapshot.Digests `json:"digests"`
}

// CheckpointConfig asks RunWithCheckpoints to persist snapshots.
type CheckpointConfig struct {
	// Path is the snapshot file (written atomically: staged in
	// Path+".tmp", fsynced, renamed).
	Path string
	// Every, when non-zero, writes a checkpoint at each multiple of this
	// many executed events (deterministic). Independent of Every, a
	// lifecycle stop (event/cycle budget, cancellation) always writes a
	// final checkpoint at the stop point.
	Every uint64
}

// RunWithCheckpoints is RunCtx plus crash-safe snapshots: periodic ones
// on the deterministic CheckpointEvery schedule, and one at any budget
// or cancellation stop, each written atomically to ck.Path. A process
// killed mid-run (even mid-write) leaves a resumable snapshot behind for
// ResumeRun.
func RunWithCheckpoints(ctx context.Context, rc RunConfig, ck CheckpointConfig) (*Result, error) {
	if ck.Path == "" {
		return nil, fmt.Errorf("cohesion: checkpointing requires a snapshot path")
	}
	rc.Limits.CheckpointEvery = ck.Every
	p, err := prepareRun(rc)
	if err != nil {
		return nil, err
	}
	spec := specOf(rc)
	p.m.SetCheckpointFunc(func(events, _ uint64) error {
		d := p.m.Digests()
		return snapshot.WriteAtomic(ck.Path, snapshot.KindRun, events, RunSnapshot{Spec: spec, Digests: &d})
	})
	return p.run(ctx)
}

// ErrDiverged reports a resumed run whose replayed state did not match
// the state recorded in its snapshot; match with errors.Is. The full
// error is a *DivergenceError naming the differing layers.
var ErrDiverged = snapshot.ErrDiverged

// DivergenceError reports that a resumed run failed its digest
// self-verification: the replayed machine state at the snapshot's event
// count does not match the recorded one. It wraps snapshot.ErrDiverged.
type DivergenceError struct {
	// Events is the snapshot's executed-event count (the verification
	// point), or the replay's final event count when the replay ended
	// before ever reaching the snapshot point.
	Events uint64
	// Layers names the digest layers that differ (empty when the replay
	// ended early instead).
	Layers []string
	// Path is the snapshot file the resume loaded.
	Path string
}

func (e *DivergenceError) Error() string {
	if len(e.Layers) == 0 {
		return fmt.Sprintf("%v: replay of %s ended at event %d before reaching the snapshot point",
			snapshot.ErrDiverged, e.Path, e.Events)
	}
	return fmt.Sprintf("%v: %s at event %d: layers %s",
		snapshot.ErrDiverged, e.Path, e.Events, strings.Join(e.Layers, ", "))
}

func (e *DivergenceError) Unwrap() error { return snapshot.ErrDiverged }

// ResumeOptions adjusts a resumed run. The zero value resumes to
// completion with no further checkpoints.
type ResumeOptions struct {
	// Every continues periodic checkpointing (to the same path) after
	// the resume point. 0 = only checkpoint again on a lifecycle stop.
	Every uint64
	// Limits bounds the resumed run. A MaxEvents at or below the
	// snapshot's event count is rejected (the run would end before the
	// resume point).
	Limits RunLimits
	// Coverage and Metrics re-attach live observability instruments.
	Coverage *Coverage
	Metrics  bool
}

// ResumeInfo describes what a resume actually did.
type ResumeInfo struct {
	Source string // snapshot file used (path or its .tmp after a torn write)
	Events uint64 // snapshot's executed-event count (the verified resume point)
	Cycle  uint64 // snapshot's cycle
}

// ResumeRun continues a checkpointed run from its latest valid snapshot
// (recovering from a torn last write automatically) and returns the
// completed run's Result, bit-identical to an uninterrupted run. The
// machine is rebuilt from the recorded spec and replayed to the
// snapshot's exact event count, where every layer digest is verified;
// a mismatch aborts with a *DivergenceError (errors.Is(err,
// snapshot.ErrDiverged)) rather than continuing from untrusted state.
// A snapshot with no digest vector (the older full-state format) is
// refused with snapshot.ErrVersion and a nil *ResumeInfo.
func ResumeRun(ctx context.Context, path string, opt ResumeOptions) (*Result, *ResumeInfo, error) {
	var snap RunSnapshot
	env, src, err := snapshot.LoadRecover(path, snapshot.KindRun, &snap)
	if err != nil {
		return nil, nil, err
	}
	if snap.Digests == nil {
		return nil, nil, fmt.Errorf("%w: snapshot file %s predates digest-only checkpoints (no digest vector)", snapshot.ErrVersion, src)
	}
	at := *snap.Digests
	if at.Events == 0 || at.Events != env.Seq {
		return nil, nil, fmt.Errorf("snapshot file %s: inconsistent run snapshot (events=%d seq=%d)", src, at.Events, env.Seq)
	}
	info := &ResumeInfo{Source: src, Events: at.Events, Cycle: at.Cycle}

	if max := opt.Limits.MaxEvents; max != 0 && max <= at.Events {
		return nil, info, fmt.Errorf("cohesion: resume event budget %d is not past the snapshot's %d events", max, at.Events)
	}
	rc := snap.Spec.runConfig()
	rc.Limits = opt.Limits
	rc.Limits.CheckpointEvery = opt.Every
	rc.Limits.CheckpointAt = append(rc.Limits.CheckpointAt, at.Events)
	rc.Coverage = opt.Coverage
	rc.Metrics = opt.Metrics

	p, err := prepareRun(rc)
	if err != nil {
		return nil, info, err
	}
	verified := false
	var diverged *DivergenceError
	p.m.SetCheckpointFunc(func(events, _ uint64) error {
		if events == at.Events {
			d := p.m.Digests()
			if testDigestPerturb != nil {
				testDigestPerturb(&d)
			}
			if diff := d.Diff(at); len(diff) > 0 {
				diverged = &DivergenceError{Events: at.Events, Layers: diff, Path: src}
				return diverged
			}
			verified = true
			return nil
		}
		if !verified || events < at.Events {
			return nil // not yet at the resume point; nothing worth persisting
		}
		d := p.m.Digests()
		return snapshot.WriteAtomic(path, snapshot.KindRun, events, RunSnapshot{Spec: snap.Spec, Digests: &d})
	})
	res, err := p.run(ctx)
	if diverged != nil {
		return nil, info, diverged
	}
	if err == nil && !verified {
		// The replay reached quiescence before the snapshot's event count:
		// the event sequence itself diverged.
		return nil, info, &DivergenceError{Events: p.m.Q.Fired(), Path: src}
	}
	return res, info, err
}

// testDigestPerturb, when set by a test, corrupts the replayed digest
// vector before the resume verification — exercising the divergence path
// without needing real nondeterminism.
var testDigestPerturb func(*snapshot.Digests)

// SelfCheckReport is the outcome of one SelfCheckResume harness run.
type SelfCheckReport struct {
	TotalEvents uint64   // straight-through run length in events
	Depths      []uint64 // checkpoint depths exercised
	Resumed     int      // depths that resumed and matched bit-for-bit

	// Set when a divergence was found:
	Diverged       bool
	DivergentDepth uint64   // checkpoint depth that exposed it
	FirstEvent     uint64   // first divergent event (bisected), 0 if bisect failed
	Layers         []string // digest layers differing at FirstEvent
	DumpA, DumpB   string   // diagnostic MachineState dumps (KindState files)
}

// SelfCheckResume is the resume-divergence self-check harness: it runs
// rc straight through, then for each of n interior checkpoint depths it
// interrupts a fresh run at that event count (writing a snapshot),
// resumes from the snapshot, and compares the final memory fingerprint,
// cumulative stats, and edge-coverage set against the straight-through
// run. On any mismatch it bisects to the first event at which two
// independent replays disagree, dumps both diagnostic machine states
// under dir, and reports the divergence (errors.Is(err,
// snapshot.ErrDiverged)). Snapshot and dump files are written under dir.
func SelfCheckResume(ctx context.Context, rc RunConfig, n int, dir string) (*SelfCheckReport, error) {
	if n < 1 {
		n = 3
	}
	rc.Limits = RunLimits{}
	refCov := NewCoverage()
	refRC := rc
	refRC.Coverage = refCov
	ref, err := RunCtx(ctx, refRC)
	if err != nil {
		return nil, fmt.Errorf("cohesion: self-check straight-through run: %w", err)
	}
	report := &SelfCheckReport{TotalEvents: ref.Stats.Events}
	refStats := ref.Stats.Digest()
	refEdges := refCov.CountsByName()

	for i := 1; i <= n; i++ {
		d := ref.Stats.Events * uint64(i) / uint64(n+1)
		if d == 0 || (len(report.Depths) > 0 && report.Depths[len(report.Depths)-1] == d) {
			continue
		}
		report.Depths = append(report.Depths, d)

		ckptPath := filepath.Join(dir, fmt.Sprintf("selfcheck-%s-%d.ckpt", rc.Kernel, d))
		interrupted := rc
		interrupted.Limits = RunLimits{MaxEvents: d}
		if _, err := RunWithCheckpoints(ctx, interrupted, CheckpointConfig{Path: ckptPath}); !errors.Is(err, ErrBudgetExhausted) {
			return report, fmt.Errorf("cohesion: self-check interrupt at %d events: %v", d, err)
		}

		cov := NewCoverage()
		res, _, err := ResumeRun(ctx, ckptPath, ResumeOptions{Coverage: cov})
		if err != nil {
			if errors.Is(err, snapshot.ErrDiverged) {
				return report, report.diagnose(ctx, rc, d, dir, err)
			}
			return report, fmt.Errorf("cohesion: self-check resume from %d events: %w", d, err)
		}

		var mismatch []string
		if res.MemFingerprint != ref.MemFingerprint {
			mismatch = append(mismatch, fmt.Sprintf("memory fingerprint %#x vs %#x", res.MemFingerprint, ref.MemFingerprint))
		}
		if got := res.Stats.Digest(); got != refStats {
			mismatch = append(mismatch, fmt.Sprintf("stats digest %#x vs %#x", got, refStats))
		}
		if diff := edgeSetDiff(cov.CountsByName(), refEdges); diff != "" {
			mismatch = append(mismatch, "edge coverage: "+diff)
		}
		if len(mismatch) > 0 {
			return report, report.diagnose(ctx, rc, d, dir,
				fmt.Errorf("%w: resumed run differs from straight-through: %s", snapshot.ErrDiverged, strings.Join(mismatch, "; ")))
		}
		report.Resumed++
	}
	return report, nil
}

// diagnose bisects to the first event at which two independent replays
// disagree and dumps both machine states for post-mortem comparison.
func (r *SelfCheckReport) diagnose(ctx context.Context, rc RunConfig, depth uint64, dir string, cause error) error {
	r.Diverged = true
	r.DivergentDepth = depth

	capture := func(replay int, at uint64) (*snapshot.MachineState, error) {
		probe := rc
		probe.Limits = RunLimits{MaxEvents: at}
		p, err := prepareRun(probe)
		if err != nil {
			return nil, err
		}
		if err := p.m.SimulateCtx(ctx, probe.MaxCycles, probe.Limits); err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return nil, err
		}
		st := p.m.CaptureState()
		if testReplayPerturb != nil {
			testReplayPerturb(replay, st)
		}
		return st, nil
	}
	var lastA, lastB *snapshot.MachineState
	first, err := snapshot.Bisect(0, r.TotalEvents, func(at uint64) (bool, error) {
		a, err := capture(0, at)
		if err != nil {
			return false, err
		}
		b, err := capture(1, at)
		if err != nil {
			return false, err
		}
		if diff := a.Digests.Diff(b.Digests); len(diff) > 0 {
			lastA, lastB = a, b
			return false, nil
		}
		return true, nil
	})
	if err != nil || lastA == nil {
		// Replays agree everywhere (or bisect itself failed): the
		// divergence is between replay and snapshot content, not between
		// replays; report the original cause without a bisected event.
		return cause
	}
	r.FirstEvent = first
	r.Layers = lastA.Digests.Diff(lastB.Digests)

	// Re-capture both states at the first divergent event and dump them.
	a, errA := capture(0, first)
	b, errB := capture(1, first)
	if errA == nil && errB == nil {
		r.DumpA = filepath.Join(dir, fmt.Sprintf("diverge-%s-%d-a.json", rc.Kernel, first))
		r.DumpB = filepath.Join(dir, fmt.Sprintf("diverge-%s-%d-b.json", rc.Kernel, first))
		_ = snapshot.WriteAtomic(r.DumpA, snapshot.KindState, first, a)
		_ = snapshot.WriteAtomic(r.DumpB, snapshot.KindState, first, b)
	}
	return fmt.Errorf("%w; first divergent event %d (layers %s), states dumped to %s / %s",
		cause, first, strings.Join(r.Layers, ", "), r.DumpA, r.DumpB)
}

// testReplayPerturb, when set by a test, corrupts one replay's captured
// state during bisection — exercising the bisect-and-dump path.
var testReplayPerturb func(replay int, st *snapshot.MachineState)

// edgeSetDiff compares two coverage maps, returning "" when identical.
func edgeSetDiff(got, want map[string]uint64) string {
	var names []string
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, n := range names {
		if got[n] != want[n] {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", n, got[n], want[n]))
		}
	}
	return strings.Join(diffs, ", ")
}

// statsDigestOf exposes the stats digest for table-level comparisons in
// the CLIs (avoids exporting internal/stats further).
func statsDigestOf(r *stats.Run) uint64 { return r.Digest() }
