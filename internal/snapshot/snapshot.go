// Package snapshot is the checkpoint/restore substrate: a versioned,
// checksummed file envelope with crash-safe atomic writes, and the
// per-layer digests that let a resumed run prove it replayed to the exact
// machine state the snapshot recorded.
//
// Crash-safety protocol. A snapshot is always written to <path>.tmp
// first, fsynced, then renamed over <path>. A reader that finds <path>
// torn (or missing) falls back to <path>.tmp; when both decode, the one
// with the higher sequence number wins. A SIGKILL at any instant
// therefore leaves at most one torn file and at least one complete,
// checksummed snapshot to resume from.
//
// Determinism contract. The simulator's event loop is a closure-driven
// discrete-event engine whose core programs run as coroutines, so a
// snapshot serializes neither continuations nor the data they act on.
// It records the run spec and a per-layer digest vector (memory image,
// cache and directory entries, region table, oracle, stats, in-flight
// work) at an exact executed-event count, so its size does not grow
// with the machine. Restore rebuilds the machine from the spec and
// replays deterministically to that event count — replay from the same
// seeds is bit-exact, which the golden fingerprint tests lock in — then
// verifies every layer digest before continuing. A resumed run is
// therefore bit-identical to an uninterrupted one, and any
// nondeterminism is caught at the resume point and named by layer
// instead of silently corrupting results.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Magic identifies snapshot files; Version is the envelope format
// version. It covers every kind, so a change to one kind's payload is
// refused by that kind's loader, not by a bump that strands all kinds.
const (
	Magic   = "cohesion-snapshot"
	Version = 1
)

// Kind distinguishes the snapshot payloads carried by the envelope.
type Kind string

// Registered snapshot kinds.
const (
	KindRun   Kind = "run"   // one simulation (RunSnapshot at the root)
	KindSweep Kind = "sweep" // an experiment sweep's per-cell results
	KindFuzz  Kind = "fuzz"  // a fuzz batch's progress counters
	KindJob   Kind = "job"   // a job-service record (internal/serve)
)

// Structured load errors; match with errors.Is.
var (
	ErrNotSnapshot = errors.New("snapshot: not a snapshot file")
	ErrVersion     = errors.New("snapshot: unsupported snapshot version")
	ErrKind        = errors.New("snapshot: wrong snapshot kind")
	ErrChecksum    = errors.New("snapshot: checksum mismatch (torn or corrupted write)")

	// ErrDiverged reports that a resumed run's replayed state did not
	// match the digests recorded in its snapshot (see Digests.Diff).
	ErrDiverged = errors.New("snapshot: resumed run diverged from recorded state")
)

// Envelope is the on-disk frame around every snapshot payload.
type Envelope struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Kind     Kind            `json:"kind"`
	Seq      uint64          `json:"seq"`      // writer-monotonic (event count, cell count, iteration)
	Checksum string          `json:"checksum"` // sha256 of the payload bytes
	Payload  json.RawMessage `json:"payload"`
}

// Encode frames a payload value in a checksummed envelope.
func Encode(kind Kind, seq uint64, payload any) ([]byte, error) {
	pb, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding %s payload: %w", kind, err)
	}
	sum := sha256.Sum256(pb)
	env := Envelope{
		Magic:    Magic,
		Version:  Version,
		Kind:     kind,
		Seq:      seq,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  pb,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding envelope: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode validates an envelope (magic, version, kind, checksum) and
// unmarshals its payload into out.
func Decode(b []byte, kind Kind, out any) (Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return env, fmt.Errorf("%w: %v", ErrNotSnapshot, err)
	}
	if env.Magic != Magic {
		return env, fmt.Errorf("%w: magic %q", ErrNotSnapshot, env.Magic)
	}
	if env.Version != Version {
		return env, fmt.Errorf("%w: file version %d, want %d", ErrVersion, env.Version, Version)
	}
	if env.Kind != kind {
		return env, fmt.Errorf("%w: file holds %q, want %q", ErrKind, env.Kind, kind)
	}
	sum := sha256.Sum256(env.Payload)
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	if string(hexSum[:]) != env.Checksum {
		return env, ErrChecksum
	}
	if out != nil {
		if err := json.Unmarshal(env.Payload, out); err != nil {
			return env, fmt.Errorf("snapshot: decoding %s payload: %w", kind, err)
		}
	}
	return env, nil
}

// TmpPath is the temp-file name WriteAtomic stages a snapshot in before
// the rename; LoadRecover checks it as the fallback after a crash.
func TmpPath(path string) string { return path + ".tmp" }

// WriteAtomic stages the envelope in <path>.tmp, fsyncs it, then renames
// it over <path>, so a reader never observes a half-written <path> and a
// crash at any point leaves a complete previous snapshot behind.
func WriteAtomic(path string, kind Kind, seq uint64, payload any) error {
	b, err := Encode(kind, seq, payload)
	if err != nil {
		return err
	}
	tmp := TmpPath(path)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: committing %s: %w", path, err)
	}
	return nil
}

// Load reads and validates one snapshot file.
func Load(path string, kind Kind, out any) (Envelope, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Envelope{}, fmt.Errorf("snapshot: %w", err)
	}
	env, err := Decode(b, kind, out)
	if err != nil {
		return env, fmt.Errorf("snapshot file %s: %w", path, err)
	}
	return env, nil
}

// LoadRecover loads the newest valid snapshot among <path> and
// <path>.tmp (a crash mid-write can leave either torn; a crash between
// the staged write and the rename leaves the newer snapshot in the temp
// file). It returns the envelope, the file actually used, and an error
// only when no valid snapshot exists at either location.
func LoadRecover(path string, kind Kind, out any) (Envelope, string, error) {
	type candidate struct {
		env Envelope
		src string
		raw json.RawMessage
	}
	var best *candidate
	var firstErr error
	for _, src := range []string{path, TmpPath(path)} {
		b, err := os.ReadFile(src)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot: %w", err)
			}
			continue
		}
		env, err := Decode(b, kind, nil)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot file %s: %w", src, err)
			}
			continue
		}
		if best == nil || env.Seq > best.env.Seq {
			best = &candidate{env: env, src: src, raw: env.Payload}
		}
	}
	if best == nil {
		if firstErr == nil {
			firstErr = fmt.Errorf("snapshot: no snapshot at %s", path)
		}
		return Envelope{}, "", firstErr
	}
	if out != nil {
		if err := json.Unmarshal(best.raw, out); err != nil {
			return best.env, best.src, fmt.Errorf("snapshot file %s: decoding %s payload: %w", best.src, kind, err)
		}
	}
	return best.env, best.src, nil
}
