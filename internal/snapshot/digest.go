package snapshot

import (
	"fmt"

	"cohesion/internal/addr"
)

// DigestScheme names how this build computes the digest vector: the L2,
// directory and oracle layers are each a sum, mod 2^64, of one Hasher
// sum per live entry, so no walk depends on iteration order. A run
// checkpoint records it, and a resume refuses a file written under any
// other scheme before replaying, since its digests could not verify.
const DigestScheme = "orderfree-splitmix64"

// Hasher accumulates one digest a 64-bit word at a time. Each word is
// folded in by the splitmix64 finalizer, which is a bijection of the
// state: a change to any single word always changes the sum, and every
// bit of the sum depends on every bit of every word. The sum is thus
// already avalanched, so adding the sums of many entries cannot cancel a
// structured change (a top bit flipped in two entries moves the total).
// Its values belong to the digest vector alone: Store.Fingerprint and
// Run.Digest hash on their own.
type Hasher struct{ h uint64 }

// hashSeed starts every Hasher. It is not zero, because the finalizer
// maps zero to zero and an all-zero entry would then add nothing.
const hashSeed = 0x9e3779b97f4a7c15

// NewHasher returns a fresh accumulator.
func NewHasher() *Hasher { return &Hasher{h: hashSeed} }

// U64 mixes one 64-bit word.
func (s *Hasher) U64(v uint64) {
	x := s.h ^ v
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	s.h = x ^ x>>31
}

// Line mixes a line's data words, two to a 64-bit word.
func (s *Hasher) Line(words *[addr.WordsPerLine]uint32) {
	for i := 0; i < len(words); i += 2 {
		s.U64(uint64(words[i]) | uint64(words[i+1])<<32)
	}
}

// String mixes a length-prefixed string, eight bytes to a word.
func (s *Hasher) String(v string) {
	s.U64(uint64(len(v)))
	for len(v) > 0 {
		n := min(len(v), 8)
		var w uint64
		for i := 0; i < n; i++ {
			w |= uint64(v[i]) << (8 * i)
		}
		s.U64(w)
		v = v[n:]
	}
}

// Sum returns the digest.
func (s *Hasher) Sum() uint64 { return s.h }

// Flag is 1 for true and 0 for false, for packing booleans with other
// small fields into one mixed word.
func Flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Digests is the per-layer digest vector captured at one between-events
// boundary. Comparing vectors localizes a resume divergence to the first
// simulator layer whose replayed state differs from the recorded one.
type Digests struct {
	Events   uint64 `json:"events"`   // executed events at the capture point
	Cycle    uint64 `json:"cycle"`    // simulated cycle at the capture point
	QueueLen uint64 `json:"queuelen"` // events pending in the queue
	Mem      uint64 `json:"mem"`      // DRAM store image
	L2       uint64 `json:"l2"`       // every cluster's L2 entries (state, masks, data)
	Dir      uint64 `json:"dir"`      // every home bank's directory entries
	Region   uint64 `json:"region"`   // coarse region table (the fine bitmap lives in Mem)
	Oracle   uint64 `json:"oracle"`   // oracle shadow state (0 when disabled)
	Stats    uint64 `json:"stats"`    // cumulative Run counters
	Inflight uint64 `json:"inflight"` // outstanding L2/home transactions and timers
}

// layer names in fixed report order.
var digestLayers = []struct {
	name string
	get  func(*Digests) uint64
}{
	{"events", func(d *Digests) uint64 { return d.Events }},
	{"cycle", func(d *Digests) uint64 { return d.Cycle }},
	{"queuelen", func(d *Digests) uint64 { return d.QueueLen }},
	{"mem", func(d *Digests) uint64 { return d.Mem }},
	{"l2", func(d *Digests) uint64 { return d.L2 }},
	{"dir", func(d *Digests) uint64 { return d.Dir }},
	{"region", func(d *Digests) uint64 { return d.Region }},
	{"oracle", func(d *Digests) uint64 { return d.Oracle }},
	{"stats", func(d *Digests) uint64 { return d.Stats }},
	{"inflight", func(d *Digests) uint64 { return d.Inflight }},
}

// Diff names every layer whose digest differs between d and o, in fixed
// catalog order. An empty result means the vectors agree bit-for-bit.
func (d Digests) Diff(o Digests) []string {
	var out []string
	for _, l := range digestLayers {
		if a, b := l.get(&d), l.get(&o); a != b {
			out = append(out, fmt.Sprintf("%s (%#x vs %#x)", l.name, a, b))
		}
	}
	return out
}
