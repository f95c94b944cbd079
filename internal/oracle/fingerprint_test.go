package oracle

import (
	"slices"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/region"
)

// testLines are the shadow lines the fingerprint tests build.
func testLines() []addr.Line {
	lines := make([]addr.Line, 64)
	for i := range lines {
		lines[i] = addr.Line(1000 + 3*i)
	}
	return lines
}

// shadowed builds an oracle whose shadow lines are created in the given
// order. Every line has data, a holder in each cluster, a publish in
// flight and a transition under way, so every hashed field is set.
func shadowed(order []addr.Line) *Oracle {
	cfg := config.Scaled(2).WithMode(config.Cohesion)
	o := New(cfg, &event.Queue{}, dram.NewStore(), &region.CoarseTable{}, nil)
	for _, l := range order {
		s := o.lineFor(l)
		for w := range s.mem {
			s.mem[w] = uint32(l)*addr.WordsPerLine + uint32(w)
		}
		s.latest = s.mem
		s.latest[0]++
		s.transDepth, s.transTarget = 1, true
		s.unstable = uint8(l)
		s.inflight = append(s.inflight, publish{mask: 1, data: s.latest})
		for c := 0; c < cfg.Clusters; c++ {
			s.holders[c] = &holder{state: holderShared, valid: 0xff, data: s.mem}
		}
	}
	o.Checks = 42
	return o
}

// TestFingerprintIgnoresMapOrder calls Fingerprint repeatedly (Go
// randomizes each map walk) and on an oracle whose lines were inserted in
// the reverse order: every result must agree.
func TestFingerprintIgnoresMapOrder(t *testing.T) {
	lines := testLines()
	o := shadowed(lines)
	want := o.Fingerprint()
	for i := 0; i < 20; i++ {
		if got := o.Fingerprint(); got != want {
			t.Fatalf("call %d fingerprints %#x, first call %#x", i, got, want)
		}
	}
	slices.Reverse(lines)
	if got := shadowed(lines).Fingerprint(); got != want {
		t.Fatalf("lines inserted in reverse order fingerprint %#x, want %#x", got, want)
	}
}

// TestFingerprintCoversEveryShadowField changes one field of one shadow
// line at a time; each change must move the fingerprint.
func TestFingerprintCoversEveryShadowField(t *testing.T) {
	lines := testLines()
	want := shadowed(lines).Fingerprint()
	for _, tc := range []struct {
		name   string
		mutate func(s *lineShadow)
	}{
		{"shadow memory word", func(s *lineShadow) { s.mem[3] ^= 1 }},
		{"latest word", func(s *lineShadow) { s.latest[7] ^= 1 << 31 }},
		{"domain", func(s *lineShadow) { s.sw = !s.sw }},
		{"transition depth", func(s *lineShadow) { s.transDepth++ }},
		{"transition target", func(s *lineShadow) { s.transTarget = !s.transTarget }},
		{"unstable mask", func(s *lineShadow) { s.unstable ^= 1 << 6 }},
		{"publish data", func(s *lineShadow) { s.inflight[0].data[5] ^= 1 }},
		{"publish count", func(s *lineShadow) { s.inflight = s.inflight[:0] }},
		{"holder state", func(s *lineShadow) { s.holders[1].state = holderModified }},
		{"holder data", func(s *lineShadow) { s.holders[0].data[2] ^= 1 }},
		{"holder gone", func(s *lineShadow) { delete(s.holders, 1) }},
	} {
		o := shadowed(lines)
		tc.mutate(o.lines[lines[5]])
		if o.Fingerprint() == want {
			t.Errorf("%s: fingerprint did not move", tc.name)
		}
	}
	o := shadowed(lines)
	o.Checks++
	if o.Fingerprint() == want {
		t.Error("check count: fingerprint did not move")
	}
}
