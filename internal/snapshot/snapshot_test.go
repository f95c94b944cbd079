package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{Name: "heat", Count: 42}
	b, err := Encode(KindRun, 7, in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var out payload
	env, err := Decode(b, KindRun, &out)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if env.Seq != 7 || env.Kind != KindRun || env.Version != Version {
		t.Fatalf("envelope = %+v", env)
	}
	if out != in {
		t.Fatalf("payload round-trip: got %+v want %+v", out, in)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not json at all"), KindRun, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("garbage: err = %v, want ErrNotSnapshot", err)
	}
	if _, err := Decode([]byte(`{"magic":"something-else","version":1}`), KindRun, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("wrong magic: err = %v, want ErrNotSnapshot", err)
	}
}

func TestDecodeRejectsVersionKindChecksum(t *testing.T) {
	b, err := Encode(KindRun, 1, payload{Name: "x"})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	bad := strings.Replace(string(b), `"version":1`, `"version":99`, 1)
	if _, err := Decode([]byte(bad), KindRun, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("version: err = %v, want ErrVersion", err)
	}

	if _, err := Decode(b, KindSweep, nil); !errors.Is(err, ErrKind) {
		t.Fatalf("kind: err = %v, want ErrKind", err)
	}

	corrupt := strings.Replace(string(b), `"name":"x"`, `"name":"y"`, 1)
	if _, err := Decode([]byte(corrupt), KindRun, nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("checksum: err = %v, want ErrChecksum", err)
	}
}

func TestWriteAtomicAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindRun, 3, payload{Name: "fft", Count: 9}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	if _, err := os.Stat(TmpPath(path)); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after commit: %v", err)
	}
	var out payload
	env, err := Load(path, KindRun, &out)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if env.Seq != 3 || out.Name != "fft" || out.Count != 9 {
		t.Fatalf("loaded env=%+v payload=%+v", env, out)
	}
}

// A kill during the staged write leaves a torn temp file next to a
// complete previous snapshot; recovery must use the previous snapshot.
func TestLoadRecoverTornTmpFallsBackToCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindRun, 5, payload{Name: "good", Count: 5}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	full, err := Encode(KindRun, 6, payload{Name: "torn", Count: 6})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), full[:len(full)/2], 0o644); err != nil {
		t.Fatalf("writing torn tmp: %v", err)
	}

	var out payload
	env, src, err := LoadRecover(path, KindRun, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != path || env.Seq != 5 || out.Name != "good" {
		t.Fatalf("recovered src=%s env=%+v payload=%+v, want committed snapshot", src, env, out)
	}
}

// A kill between the staged fsync and the rename leaves the newest
// snapshot in the temp file; recovery must prefer it by sequence.
func TestLoadRecoverNewerValidTmpWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := WriteAtomic(path, KindRun, 5, payload{Name: "old", Count: 5}); err != nil {
		t.Fatalf("WriteAtomic: %v", err)
	}
	newer, err := Encode(KindRun, 6, payload{Name: "new", Count: 6})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), newer, 0o644); err != nil {
		t.Fatalf("writing tmp: %v", err)
	}

	var out payload
	env, src, err := LoadRecover(path, KindRun, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != TmpPath(path) || env.Seq != 6 || out.Name != "new" {
		t.Fatalf("recovered src=%s env=%+v payload=%+v, want temp snapshot", src, env, out)
	}
}

func TestLoadRecoverTornCommittedUsesTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	full, err := Encode(KindRun, 2, payload{Name: "tmp-only", Count: 2})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatalf("writing torn committed file: %v", err)
	}
	if err := os.WriteFile(TmpPath(path), full, 0o644); err != nil {
		t.Fatalf("writing tmp: %v", err)
	}

	var out payload
	_, src, err := LoadRecover(path, KindRun, &out)
	if err != nil {
		t.Fatalf("LoadRecover: %v", err)
	}
	if src != TmpPath(path) || out.Name != "tmp-only" {
		t.Fatalf("recovered src=%s payload=%+v, want temp snapshot", src, out)
	}
}

func TestLoadRecoverNothingValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, _, err := LoadRecover(path, KindRun, nil); err == nil {
		t.Fatal("LoadRecover on missing files: want error")
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRecover(path, KindRun, nil); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("LoadRecover on junk: err = %v, want ErrNotSnapshot", err)
	}
}

func TestDigestsDiff(t *testing.T) {
	a := Digests{Events: 10, Cycle: 5, Mem: 1, Stats: 2}
	if d := a.Diff(a); d != nil {
		t.Fatalf("self-diff = %v, want nil", d)
	}
	b := a
	b.Mem = 99
	b.Inflight = 7
	d := a.Diff(b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "mem ") || !strings.HasPrefix(d[1], "inflight ") {
		t.Fatalf("diff = %v, want mem then inflight", d)
	}
}

func TestBisect(t *testing.T) {
	// Divergence begins at event 137: agree(n) is true for n < 137.
	const first = 137
	probes := 0
	at, err := Bisect(0, 10_000, func(n uint64) (bool, error) {
		probes++
		return n < first, nil
	})
	if err != nil {
		t.Fatalf("Bisect: %v", err)
	}
	if at != first {
		t.Fatalf("Bisect = %d, want %d", at, first)
	}
	if probes > 15 {
		t.Fatalf("Bisect used %d probes for a 10k range, want <= ~log2", probes)
	}

	// Divergence at the very first candidate.
	at, err = Bisect(10, 11, func(n uint64) (bool, error) { return false, nil })
	if err != nil || at != 11 {
		t.Fatalf("Bisect tight range = %d, %v", at, err)
	}

	// Probe errors propagate.
	wantErr := errors.New("replay failed")
	if _, err := Bisect(0, 100, func(n uint64) (bool, error) { return false, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("Bisect probe error: %v", err)
	}

	// Empty range is an error.
	if _, err := Bisect(5, 5, nil); err == nil {
		t.Fatal("Bisect empty range: want error")
	}
}

func TestHasherMatchesFNVReference(t *testing.T) {
	// Two different mixes must differ; same mix must be stable.
	h1 := NewHasher()
	h1.U64(1)
	h1.U32(2)
	h1.Bool(true)
	h1.String("abc")
	h2 := NewHasher()
	h2.U64(1)
	h2.U32(2)
	h2.Bool(true)
	h2.String("abc")
	if h1.Sum() != h2.Sum() {
		t.Fatal("hasher not deterministic")
	}
	h3 := NewHasher()
	h3.U64(1)
	h3.U32(2)
	h3.Bool(false)
	h3.String("abc")
	if h1.Sum() == h3.Sum() {
		t.Fatal("hasher ignored a boolean")
	}
}
