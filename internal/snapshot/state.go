package snapshot

import (
	"fmt"

	"cohesion/internal/addr"
	"cohesion/internal/stats"
)

// Hasher is the FNV-1a accumulator the digest layers share. It matches
// the mixing the DRAM store's Fingerprint uses, so every layer digest in
// the system speaks the same 64-bit language.
type Hasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// NewHasher returns a fresh accumulator.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// U64 mixes one 64-bit value, a byte at a time.
func (s *Hasher) U64(v uint64) {
	for i := 0; i < 8; i++ {
		s.h ^= v & 0xff
		s.h *= fnvPrime
		v >>= 8
	}
}

// U32 mixes one 32-bit value.
func (s *Hasher) U32(v uint32) { s.U64(uint64(v)) }

// U8 mixes one byte.
func (s *Hasher) U8(v uint8) {
	s.h ^= uint64(v)
	s.h *= fnvPrime
}

// Bool mixes one boolean.
func (s *Hasher) Bool(v bool) {
	if v {
		s.U8(1)
	} else {
		s.U8(0)
	}
}

// Int mixes one int.
func (s *Hasher) Int(v int) { s.U64(uint64(int64(v))) }

// String mixes a length-prefixed string.
func (s *Hasher) String(v string) {
	s.U64(uint64(len(v)))
	for i := 0; i < len(v); i++ {
		s.U8(v[i])
	}
}

// Sum returns the accumulated digest.
func (s *Hasher) Sum() uint64 { return s.h }

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

// MemLine is one written line of the DRAM store.
type MemLine struct {
	Line uint64                    `json:"line"`
	Data [addr.WordsPerLine]uint32 `json:"data"`
}

// CacheLine is one valid L2 entry of one cluster.
type CacheLine struct {
	Cluster    int                       `json:"cluster"`
	Line       uint64                    `json:"line"`
	State      uint8                     `json:"state"`
	Incoherent bool                      `json:"incoherent,omitempty"`
	Pinned     bool                      `json:"pinned,omitempty"`
	ValidMask  uint8                     `json:"valid_mask"`
	DirtyMask  uint8                     `json:"dirty_mask,omitempty"`
	Data       [addr.WordsPerLine]uint32 `json:"data"`
}

// DirEntry is one allocated directory entry of one home bank.
type DirEntry struct {
	Bank      int    `json:"bank"`
	Line      uint64 `json:"line"`
	State     uint8  `json:"state"`
	Owner     int    `json:"owner"`
	Sharers   []int  `json:"sharers,omitempty"`
	Broadcast bool   `json:"broadcast,omitempty"`
	Pinned    bool   `json:"pinned,omitempty"`
}

// RegionRange is one coarse-grain SWcc range.
type RegionRange struct {
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// MachineState is the complete serialized data state of one machine at a
// between-events boundary: the memory image, the dirty (and clean) cache
// lines, the directory machine states, the Cohesion region map, the
// in-flight transaction report, and the run's counters, plus the digest
// vector hashed from those same lists. It is what a divergence dump
// (KindState) contains; a checkpoint persists only its Digests.
type MachineState struct {
	Digests  Digests        `json:"digests"`
	Mem      []MemLine      `json:"mem"`
	L2       []CacheLine    `json:"l2,omitempty"`
	Dir      []DirEntry     `json:"dir,omitempty"`
	Coarse   []RegionRange  `json:"coarse,omitempty"`
	Inflight []string       `json:"inflight,omitempty"` // outstanding-transaction report lines
	Stats    stats.Counters `json:"stats"`
}

// Bisect locates the first point in (lo, hi] at which agree reports
// false, given that agree(lo) held (lo itself is never probed) and
// agree(hi) did not. The resume self-check uses it with "replay the run
// twice to event N and compare digests" as the predicate, narrowing a
// whole-run divergence to the first divergent event in O(log n) replays.
func Bisect(lo, hi uint64, agree func(at uint64) (bool, error)) (uint64, error) {
	if hi <= lo {
		return hi, fmt.Errorf("snapshot: bisect range [%d, %d] is empty", lo, hi)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := agree(mid)
		if err != nil {
			return 0, fmt.Errorf("snapshot: bisect probe at event %d: %w", mid, err)
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
