package cohesion

import (
	"context"
	"fmt"
	"strings"

	"cohesion/internal/snapshot"
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

// RunSnapshot is the payload of a KindRun snapshot file: the run's spec,
// the per-layer digest vector at the checkpoint, which carries its exact
// executed-event count and cycle — all that a resume verifies — and the
// name of the scheme that computed the digests.
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
	Spec    RunSpec          `json:"spec"`
	Digests snapshot.Digests `json:"digests"`
	// Scheme is snapshot.DigestScheme when this build wrote the file.
	// ResumeRun refuses any other value, empty included, before replay.
	Scheme string `json:"digest_scheme"`
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
		return writeRunSnapshot(ck.Path, events, spec, p.m.Digests())
	})
	return p.run(ctx)
}

// writeRunSnapshot writes one run checkpoint under the current digest
// scheme.
func writeRunSnapshot(path string, events uint64, spec RunSpec, d snapshot.Digests) error {
	return snapshot.WriteAtomic(path, snapshot.KindRun, events, RunSnapshot{Spec: spec, Digests: d, Scheme: snapshot.DigestScheme})
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
	// TraceSink, Coverage and Metrics re-attach live observability
	// instruments. Resume replays from event 0, so the sink receives the
	// same records a straight run's would.
	TraceSink *TraceSink
	Coverage  *Coverage
	Metrics   bool
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
// A snapshot written under another digest scheme, by an older build,
// could not verify, so it is refused before any replay with
// snapshot.ErrVersion and a nil *ResumeInfo.
func ResumeRun(ctx context.Context, path string, opt ResumeOptions) (*Result, *ResumeInfo, error) {
	var snap RunSnapshot
	env, src, err := snapshot.LoadRecover(path, snapshot.KindRun, &snap)
	if err != nil {
		return nil, nil, err
	}
	if snap.Scheme != snapshot.DigestScheme {
		return nil, nil, fmt.Errorf("%w: run checkpoint %s was not written under this build's digest scheme %q; rerun it from the start",
			snapshot.ErrVersion, src, snapshot.DigestScheme)
	}
	at := snap.Digests
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
	rc.TraceSink = opt.TraceSink
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
		return writeRunSnapshot(path, events, snap.Spec, p.m.Digests())
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
