package cohesion

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cohesion/internal/snapshot"
)

// selfCheckReport is the outcome of one selfCheckResume run.
type selfCheckReport struct {
	totalEvents uint64   // straight-through run length in events
	depths      []uint64 // checkpoint depths exercised
	resumed     int      // depths that resumed and matched bit for bit

	// Set when a divergence was found:
	diverged       bool
	divergentDepth uint64   // checkpoint depth that exposed it
	firstEvent     uint64   // first divergent event (bisected), 0 if two replays never disagree
	layers         []string // digest layers differing at firstEvent
}

// selfCheckResume is the resume-divergence self-check: it runs rc
// straight through, then for each of n interior checkpoint depths it
// interrupts a fresh run at that event count (writing a snapshot under
// dir), resumes from the snapshot, and compares the final memory
// fingerprint, stats digest and edge-coverage set with the straight
// run. On any mismatch it bisects to the first event at which two
// independent replays' digest vectors disagree, and reports the
// divergence (errors.Is(err, snapshot.ErrDiverged)).
func selfCheckResume(ctx context.Context, rc RunConfig, n int, dir string) (*selfCheckReport, error) {
	rc.Limits = RunLimits{}
	refCov := NewCoverage()
	refRC := rc
	refRC.Coverage = refCov
	ref, err := RunCtx(ctx, refRC)
	if err != nil {
		return nil, fmt.Errorf("self-check straight-through run: %w", err)
	}
	report := &selfCheckReport{totalEvents: ref.Stats.Events}
	refStats := ref.Stats.Digest()
	refEdges := refCov.CountsByName()

	for i := 1; i <= n; i++ {
		d := ref.Stats.Events * uint64(i) / uint64(n+1)
		if d == 0 || (len(report.depths) > 0 && report.depths[len(report.depths)-1] == d) {
			continue
		}
		report.depths = append(report.depths, d)

		ckptPath := filepath.Join(dir, fmt.Sprintf("selfcheck-%s-%d.ckpt", rc.Kernel, d))
		interrupted := rc
		interrupted.Limits = RunLimits{MaxEvents: d}
		if _, err := RunWithCheckpoints(ctx, interrupted, CheckpointConfig{Path: ckptPath}); !errors.Is(err, ErrBudgetExhausted) {
			return report, fmt.Errorf("self-check interrupt at %d events: %v", d, err)
		}

		cov := NewCoverage()
		res, _, err := ResumeRun(ctx, ckptPath, ResumeOptions{Coverage: cov})
		if err != nil {
			if errors.Is(err, snapshot.ErrDiverged) {
				return report, report.diagnose(ctx, rc, d, err)
			}
			return report, fmt.Errorf("self-check resume from %d events: %w", d, err)
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
			return report, report.diagnose(ctx, rc, d,
				fmt.Errorf("%w: resumed run differs from straight-through: %s", snapshot.ErrDiverged, strings.Join(mismatch, "; ")))
		}
		report.resumed++
	}
	return report, nil
}

// diagnose bisects to the first event at which two independent replays'
// digest vectors disagree.
func (r *selfCheckReport) diagnose(ctx context.Context, rc RunConfig, depth uint64, cause error) error {
	r.diverged = true
	r.divergentDepth = depth

	replay := func(i int, at uint64) (snapshot.Digests, error) {
		probe := rc
		probe.Limits = RunLimits{MaxEvents: at}
		p, err := Prepare(probe)
		if err != nil {
			return snapshot.Digests{}, err
		}
		if err := p.m.SimulateCtx(ctx, 0, probe.Limits); err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return snapshot.Digests{}, err
		}
		d := p.m.Digests()
		if testReplayPerturb != nil {
			testReplayPerturb(i, &d)
		}
		return d, nil
	}
	// bisect's answer is its last disagreeing probe, so layers, set at
	// each disagreement, ends up naming the layers at that event.
	var layers []string
	first, err := bisect(0, r.totalEvents, func(at uint64) (bool, error) {
		a, err := replay(0, at)
		if err != nil {
			return false, err
		}
		b, err := replay(1, at)
		if err != nil {
			return false, err
		}
		if diff := a.Diff(b); len(diff) > 0 {
			layers = diff
			return false, nil
		}
		return true, nil
	})
	if err != nil || layers == nil {
		// Replays agree everywhere (or bisect itself failed): the
		// divergence is between replay and snapshot content, not between
		// replays; report the original cause without a bisected event.
		return cause
	}
	r.firstEvent, r.layers = first, layers
	return fmt.Errorf("%w; first divergent event %d (layers %s)", cause, first, strings.Join(layers, ", "))
}

// testReplayPerturb, when set by a test, corrupts one replay's digest
// vector during bisection — exercising the bisect path.
var testReplayPerturb func(replay int, d *snapshot.Digests)

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

// bisect locates the first point in (lo, hi] at which agree reports
// false, given that agree(lo) held (lo itself is never probed) and
// agree(hi) did not. The self-check uses it with "replay the run twice
// to event N and compare digests" as the predicate, narrowing a
// whole-run divergence to the first divergent event in O(log n) replays.
func bisect(lo, hi uint64, agree func(at uint64) (bool, error)) (uint64, error) {
	if hi <= lo {
		return hi, fmt.Errorf("bisect range [%d, %d] is empty", lo, hi)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := agree(mid)
		if err != nil {
			return 0, fmt.Errorf("bisect probe at event %d: %w", mid, err)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

func TestBisect(t *testing.T) {
	// Divergence begins at event 137: agree(n) is true for n < 137.
	const first = 137
	probes := 0
	at, err := bisect(0, 10_000, func(n uint64) (bool, error) {
		probes++
		return n < first, nil
	})
	if err != nil {
		t.Fatalf("bisect: %v", err)
	}
	if at != first {
		t.Fatalf("bisect = %d, want %d", at, first)
	}
	if probes > 15 {
		t.Fatalf("bisect used %d probes for a 10k range, want <= ~log2", probes)
	}

	// Divergence at the very first candidate.
	at, err = bisect(10, 11, func(n uint64) (bool, error) { return false, nil })
	if err != nil || at != 11 {
		t.Fatalf("bisect tight range = %d, %v", at, err)
	}

	// Probe errors propagate.
	wantErr := errors.New("replay failed")
	if _, err := bisect(0, 100, func(n uint64) (bool, error) { return false, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("bisect probe error: %v", err)
	}

	// Empty range is an error.
	if _, err := bisect(5, 5, nil); err == nil {
		t.Fatal("bisect empty range: want error")
	}
}

// TestSelfCheckBisects forces a divergence (resume verification fails
// via the digest seam; one bisection replay is perturbed from a known
// event on) and asserts the harness bisects to that exact event, names
// the perturbed layer, and writes nothing but its checkpoints.
func TestSelfCheckBisects(t *testing.T) {
	const firstBad = 1_234
	testDigestPerturb = func(d *snapshot.Digests) { d.Mem ^= 1 }
	testReplayPerturb = func(replay int, d *snapshot.Digests) {
		if replay == 1 && d.Events >= firstBad {
			d.Mem ^= 1
		}
	}
	defer func() { testDigestPerturb = nil; testReplayPerturb = nil }()

	dir := t.TempDir()
	rc := RunConfig{Machine: ckptConfig(HWcc), Kernel: "heat", Scale: 1, Seed: 5}
	report, err := selfCheckResume(context.Background(), rc, 3, dir)
	if !errors.Is(err, snapshot.ErrDiverged) {
		t.Fatalf("selfCheckResume = %v, want ErrDiverged", err)
	}
	if !report.diverged {
		t.Fatal("report not marked diverged")
	}
	if report.firstEvent != firstBad {
		t.Fatalf("bisected first divergent event %d, want %d", report.firstEvent, firstBad)
	}
	if len(report.layers) != 1 || !strings.HasPrefix(report.layers[0], "mem ") {
		t.Fatalf("layers = %v, want mem alone", report.layers)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Ext(f.Name()) != ".ckpt" {
			t.Fatalf("self-check wrote %s; it writes only run checkpoints", f.Name())
		}
	}
}
