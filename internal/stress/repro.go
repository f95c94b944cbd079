package stress

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"cohesion/internal/addr"
	"cohesion/internal/machine"
	"cohesion/internal/simerr"
	"cohesion/internal/trace"
)

// Repro is a self-contained failure reproduction: the exact program (its
// Config includes every seed), how the run failed, and the last
// trace.TailRecords protocol trace records at failure time. It serializes
// to JSON; Capture builds it.
type Repro struct {
	Version  int            `json:"version"`
	Program  Program        `json:"program"`
	Failure  string         `json:"failure"`  // the full error text
	Sentinel string         `json:"sentinel"` // failure class, see SentinelOf
	Category string         `json:"category"` // finer tag, see CategoryOf
	Cycles   uint64         `json:"cycles"`
	Trace    []trace.Record `json:"trace,omitempty"`
}

const reproVersion = 1

// SentinelOf classifies a run error into a stable string used to decide
// whether a replay or a shrunken candidate reproduces "the same" failure.
func SentinelOf(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, simerr.ErrProtocolInvariant):
		return "protocol-invariant"
	case errors.Is(err, simerr.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, simerr.ErrRetryExhausted):
		return "retry-exhausted"
	case errors.Is(err, machine.ErrCycleLimit):
		return "cycle-limit"
	case errors.Is(err, simerr.ErrConfig):
		return "config"
	case errors.Is(err, simerr.ErrRunPanicked):
		return "panic"
	case errors.Is(err, simerr.ErrCanceled):
		return "canceled"
	case errors.Is(err, simerr.ErrBudgetExhausted):
		return "budget"
	}
	return "other"
}

// CategoryOf refines SentinelOf with the leading phrase of a structured
// diagnostic (e.g. "protocol-invariant/stale grant"), so that replay and
// shrinking track the specific violation rather than just its class —
// without it, a shrinker can wander from one protocol bug to a different
// one that shares the sentinel.
func CategoryOf(err error) string {
	s := SentinelOf(err)
	var se *simerr.Error
	if errors.As(err, &se) && se.Detail != "" {
		head := se.Detail
		if i := strings.IndexByte(head, ':'); i > 0 {
			head = head[:i]
		}
		if len(head) <= 48 {
			return s + "/" + head
		}
	}
	return s
}

// Capture runs p once with a trace sink attached and packages the run
// for the repro file, whose Trace keeps the sink's last
// trace.TailRecords records. It is the one way to build a repro: fuzz
// campaigns, the shrinker and Replay run untraced, so a failing program
// pays for tracing here, once. The whole sink is returned for export.
// Tracing only observes, so a caller may check that the repro's Category
// matches the untraced run's.
func Capture(p Program) (Repro, Result, *trace.Sink) {
	sink := trace.NewSink(0)
	res := RunProgramOpts(p, RunOpts{Sink: sink})
	failure := ""
	if res.Err != nil {
		failure = res.Err.Error()
	}
	return Repro{
		Version:  reproVersion,
		Program:  p,
		Failure:  failure,
		Sentinel: SentinelOf(res.Err),
		Category: CategoryOf(res.Err),
		Cycles:   res.Cycles,
		Trace:    sink.Tail(trace.TailRecords),
	}, res, sink
}

// Save writes the repro as indented JSON.
func (r Repro) Save(path string) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadRepro reads a repro file back, validating its schema and version so
// a malformed or truncated file is rejected with a named-field error at
// load time instead of panicking mid-replay.
func LoadRepro(path string) (Repro, error) {
	var r Repro
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("stress: bad repro file %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return r, fmt.Errorf("stress: bad repro file %s: %w", path, err)
	}
	return r, nil
}

// validOpKinds is the op-kind whitelist Validate checks schedules against.
var validOpKinds = map[string]bool{
	OpLoad: true, OpStore: true, OpAtomic: true, OpUncLoad: true,
	OpUncStore: true, OpFlush: true, OpInv: true, OpToSW: true,
	OpToHW: true, OpWork: true, OpCorrupt: true,
}

// Validate checks a repro's structural invariants — version, config
// ranges, core count, and every op's kind and operand ranges — naming the
// offending field in the error. A repro that passes cannot send Replay
// into an out-of-range access or an unknown-op panic.
func (r Repro) Validate() error {
	if r.Version != reproVersion {
		return fmt.Errorf("version: %d, want %d", r.Version, reproVersion)
	}
	cfg := r.Program.Cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("program.cfg: %w", err)
	}
	// Shrinking may drop whole cores, so fewer schedules than the machine
	// has worker slots is fine; more would map onto nonexistent cores.
	if max := cfg.Clusters * cfg.WorkersPerCluster; len(r.Program.Cores) > max {
		return fmt.Errorf("program.cores: %d schedules exceed the config's %d worker cores (%d clusters x %d workers)",
			len(r.Program.Cores), max, cfg.Clusters, cfg.WorkersPerCluster)
	}
	for ci, core := range r.Program.Cores {
		for oi, op := range core.Ops {
			field := fmt.Sprintf("program.cores[%d].ops[%d]", ci, oi)
			if !validOpKinds[op.Kind] {
				return fmt.Errorf("%s.k: unknown op kind %q", field, op.Kind)
			}
			// Line index cfg.Lines is the private corruption-motif line.
			if op.Line < 0 || op.Line > cfg.Lines {
				return fmt.Errorf("%s.l: line index %d outside [0, %d]", field, op.Line, cfg.Lines)
			}
			if op.Word < 0 || op.Word >= addr.WordsPerLine {
				return fmt.Errorf("%s.w: word index %d outside [0, %d)", field, op.Word, addr.WordsPerLine)
			}
		}
	}
	return nil
}

// Replay re-executes a repro's program and reports whether the same
// failure reproduced. Repros that predate the category field fall back to
// the coarser sentinel match.
func Replay(r Repro) (Result, bool) {
	res := RunProgram(r.Program)
	if r.Category != "" {
		return res, r.Sentinel != "none" && CategoryOf(res.Err) == r.Category
	}
	return res, r.Sentinel != "none" && SentinelOf(res.Err) == r.Sentinel
}
