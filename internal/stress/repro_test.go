package stress

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohesion/internal/addr"
)

// saveRepro writes a valid corruption repro and returns it with its path.
func saveRepro(t *testing.T) (Repro, string) {
	t.Helper()
	p, err := Generate(Config{Seed: 5, Mode: "cohesion", InjectCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	r, res, _ := Capture(p)
	if res.Err == nil {
		t.Fatal("planted corruption was not detected")
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	return r, path
}

// TestLoadReproRejectsMalformedFiles: every way a repro file can be
// broken — truncated JSON, wrong version, unknown op kind, out-of-range
// operands, excess core schedules — must be rejected at load time with an
// error naming the offending field, never deferred to a mid-replay panic.
func TestLoadReproRejectsMalformedFiles(t *testing.T) {
	valid, path := saveRepro(t)
	if _, err := LoadRepro(path); err != nil {
		t.Fatalf("valid repro rejected: %v", err)
	}

	// Truncated file: cut the JSON mid-document.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(t.TempDir(), "truncated.json")
	if err := os.WriteFile(truncated, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(truncated); err == nil || !strings.Contains(err.Error(), "bad repro file") {
		t.Fatalf("truncated repro error = %v, want bad-repro rejection", err)
	}

	// Structural mutations, each named by field in the error.
	cases := []struct {
		name    string
		mutate  func(*Repro)
		wantSub string
	}{
		{"wrong version", func(r *Repro) { r.Version = 99 }, "version: 99"},
		{"bad config", func(r *Repro) { r.Program.Cfg.Clusters = 999 }, "program.cfg"},
		{"unknown op kind", func(r *Repro) { r.Program.Cores[0].Ops[0].Kind = "zz" },
			"program.cores[0].ops[0].k"},
		{"line out of range", func(r *Repro) {
			r.Program.Cores[0].Ops[0].Line = r.Program.Cfg.WithDefaults().Lines + 1
		}, "program.cores[0].ops[0].l"},
		{"word out of range", func(r *Repro) { r.Program.Cores[0].Ops[0].Word = addr.WordsPerLine },
			"program.cores[0].ops[0].w"},
		{"excess cores", func(r *Repro) {
			cfg := r.Program.Cfg.WithDefaults()
			for len(r.Program.Cores) <= cfg.Clusters*cfg.WorkersPerCluster {
				r.Program.Cores = append(r.Program.Cores, coreOps{})
			}
		}, "program.cores:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := valid
			bad.Program.Cores = append([]coreOps(nil), valid.Program.Cores...)
			if len(bad.Program.Cores) > 0 {
				bad.Program.Cores[0].Ops = append([]Op(nil), valid.Program.Cores[0].Ops...)
			}
			tc.mutate(&bad)
			p := filepath.Join(t.TempDir(), "bad.json")
			if err := bad.Save(p); err != nil {
				t.Fatal(err)
			}
			_, err := LoadRepro(p)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("LoadRepro = %v, want error naming %q", err, tc.wantSub)
			}
		})
	}

	// Fewer cores than worker slots is legal: the shrinker drops cores.
	short := valid
	short.Program.Cores = valid.Program.Cores[:1]
	if err := short.Validate(); err != nil {
		t.Fatalf("shrunken-core repro rejected: %v", err)
	}
}

// TestCompatReproStillReplays loads a repro file an earlier build wrote:
// the planted-corruption motif shrunk to 3 ops, whose config still
// carries the since-deleted "trace_ring": 256 and which holds 8 trace
// records. Its failure must reproduce and its records must decode.
func TestCompatReproStillReplays(t *testing.T) {
	r, err := LoadRepro(filepath.Join("..", "..", "testdata", "compat", "repro.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res, same := Replay(r); !same {
		t.Fatalf("replay did not reproduce %q: got %v", r.Category, res.Err)
	}
	if len(r.Trace) != 8 {
		t.Fatalf("decoded %d trace records, want 8", len(r.Trace))
	}
	for i, rec := range r.Trace {
		if rec.Cycle == 0 || rec.Site == "" || rec.Event == "" {
			t.Errorf("trace record %d decoded incomplete: %+v", i, rec)
		}
	}
}
