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

// TestHasherMixesEveryWord checks that a digest depends on every word,
// on word order and on string length, and that the sums of two entries
// still move when the top bit of each one's last word flips: without the
// finalizer on every word, each sum would move by 2^63 and the total not
// at all.
func TestHasherMixesEveryWord(t *testing.T) {
	sum := func(words ...uint64) uint64 {
		h := NewHasher()
		for _, w := range words {
			h.U64(w)
		}
		return h.Sum()
	}
	base := sum(1, 2, 3, 0)
	if base != sum(1, 2, 3, 0) {
		t.Fatal("hasher not deterministic")
	}
	seen := map[uint64]string{base: "base"}
	for _, ws := range [][]uint64{{0, 2, 3, 0}, {1, 0, 3, 0}, {1, 2, 0, 0}, {1, 2, 3, 1}, {2, 1, 3, 0}, {1, 2, 3}, {1, 2, 3, 0, 0}} {
		got := sum(ws...)
		if prev, dup := seen[got]; dup {
			t.Fatalf("words %v hash like %s", ws, prev)
		}
		seen[got] = "an earlier variant"
	}
	if sum() == 0 || sum(0) == 0 {
		t.Fatal("an empty or all-zero input hashes to zero")
	}

	a, b := sum(7, 1<<62), sum(9, 5)
	a2, b2 := sum(7, 1<<62|1<<63), sum(9, 5|1<<63)
	if a+b == a2+b2 {
		t.Fatal("flipping bit 63 of the last word in two entries left their sum unchanged")
	}

	line := func(w [8]uint32) uint64 {
		h := NewHasher()
		h.Line(&w)
		return h.Sum()
	}
	data := [8]uint32{1, 2, 3, 4, 5, 6, 7, 8}
	ref := line(data)
	for i := range data {
		d := data
		d[i] ^= 1 << 31
		if line(d) == ref {
			t.Fatalf("data word %d left the line hash unchanged", i)
		}
	}

	str := func(parts ...string) uint64 {
		h := NewHasher()
		for _, p := range parts {
			h.String(p)
		}
		return h.Sum()
	}
	if str("abc") == str("abd") || str("a", "") == str("", "a") || str("abcdefgh") == str("abcdefgh\x00") {
		t.Fatal("strings that differ hash alike")
	}
	if Flag(true) != 1 || Flag(false) != 0 {
		t.Fatal("Flag")
	}
}
