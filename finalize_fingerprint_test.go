package cohesion

import (
	"context"
	"testing"
)

// TestCohesionFinalizeFingerprintLockIn pins the finalize fingerprint's
// optimized implementation to its byte-level definition on a real
// Cohesion run — the case where the fast paths all engage: preset table
// blocks still holding their painted pattern fold each line's words in
// one step of the pattern's lane table, and blocks the run copied out
// are mixed line by line. The reference below is a deliberately naive
// reimplementation of the documented digest (FNV-1a over lines in
// address order, line number then words, little-endian, each widened to
// eight bytes) driven through the Store's public image accessors, so any
// divergence between the optimized walk and the architectural memory
// image fails here at full protocol scale, not just on the synthetic
// stores the dram unit tests build.
func TestCohesionFinalizeFingerprintLockIn(t *testing.T) {
	for _, mode := range []Mode{SWcc, Cohesion} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := Prepare(RunConfig{
				Machine: ScaledConfig(4).WithMode(mode),
				Kernel:  "cg",
				Scale:   2,
				Seed:    42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Simulate(context.Background()); err != nil {
				t.Fatal(err)
			}
			res, err := p.Finalize()
			if err != nil {
				t.Fatal(err)
			}

			store := p.m.Store
			const (
				offset = 14695981039346656037
				prime  = 1099511628211
			)
			h := uint64(offset)
			mix64 := func(v uint64) {
				for i := 0; i < 8; i++ {
					h ^= v & 0xff
					h *= prime
					v >>= 8
				}
			}
			for _, line := range store.Lines() {
				words := store.ReadLine(line)
				mix64(uint64(line))
				for _, w := range words {
					mix64(uint64(w))
				}
			}
			if res.MemFingerprint != h {
				t.Errorf("%v: finalize fingerprint %#x, byte-definition reference %#x",
					mode, res.MemFingerprint, h)
			}
			// Recomputing on the drained store must be idempotent: the
			// first walk may not have mutated the observable digest.
			if again := store.Fingerprint(); again != res.MemFingerprint {
				t.Errorf("%v: fingerprint not idempotent: %#x then %#x",
					mode, res.MemFingerprint, again)
			}
		})
	}
}
