// Fingerprint fast path for the fine-grain-table segment.
//
// The Cohesion preset paints the region table across the whole incoherent
// heap, so end-of-run fingerprints mix ~32K table lines, almost all of
// them in blocks still holding one painted pattern (see Store). Mixing
// them byte by byte is a serial FNV-1a dependency chain — ~72 dependent
// multiplies per line, about 2ms per fingerprint at Table 3 scale — and
// was the single largest contributor to Cohesion-mode finalize time.
//
// FNV-1a is affine per low-byte lane: one byte step is
//
//	h' = (h ^ b) * p
//
// and since b < 256, the xor only disturbs the low 8 bits, so
// (h ^ b) = h + d where d = ((h&0xff) ^ b) - (h&0xff) depends only on h's
// low byte. The low byte itself evolves independently of the rest of h
// (lo' = ((lo^b)*byte(p)) & 0xff). Folding a fixed byte sequence into h is
// therefore exactly
//
//	h_out = h_in * p^n + C[h_in & 0xff]
//
// for a 256-entry constant table C. These lane transforms compose, so one
// table per 64-line block collapses ~4600 dependent multiplies into a
// multiply and an add, bit-identical to the byte loop.
//
// Block transforms depend only on the block index and the pattern — not
// on the Store — so they are cached process-wide: every machine in a
// bench or test process shares one build (~40µs per block).
package dram

import (
	"sync"

	"cohesion/internal/addr"
)

// blockXform is the composed affine transform of mixing one fully written
// 64-line block holding a single pattern: apply as h = h*mult + add[h&0xff].
type blockXform struct {
	mult uint64
	add  [256]uint64
}

type blockKey struct {
	wi      int    // block index within the table segment
	pattern uint32 // content of every word in the block
}

var (
	xformMu    sync.Mutex
	xformCache = map[blockKey]*blockXform{}
)

// powPrime returns fnv64Prime^n mod 2^64.
func powPrime(n int) uint64 {
	r := uint64(1)
	for i := 0; i < n; i++ {
		r *= fnv64Prime
	}
	return r
}

// mixTail folds the per-block-constant byte suffix of one table line into
// h: line-number bytes 1-3, the zero upper half of the widened line
// number, then the eight words of a block's pattern. This is mixLine
// minus the leading low line-number byte (71 prime multiplies).
func mixTail(h uint64, b1, b2, b3 byte, pattern uint32) uint64 {
	h ^= uint64(b1)
	h *= fnv64Prime
	h ^= uint64(b2)
	h *= fnv64Prime
	h ^= uint64(b3)
	h *= fnv64Prime
	h *= fnv64Prime4
	for w := 0; w < addr.WordsPerLine; w++ {
		v := uint64(pattern)
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
		h *= fnv64Prime4
	}
	return h
}

// blockXformFor returns the (cached) transform for block wi filled with
// pattern.
func blockXformFor(wi int, pattern uint32) *blockXform {
	k := blockKey{wi, pattern}
	xformMu.Lock()
	defer xformMu.Unlock()
	if x := xformCache[k]; x != nil {
		return x
	}
	x := buildBlockXform(wi, pattern)
	xformCache[k] = x
	return x
}

func buildBlockXform(wi int, pattern uint32) *blockXform {
	// A 64-aligned 64-line run never crosses a 256-line boundary, so the
	// upper line-number bytes are constant across the block; only the low
	// byte varies (and without carry).
	ln := uint64(tblLine0) + uint64(wi*blockLines)
	b1, b2, b3 := byte(ln>>8), byte(ln>>16), byte(ln>>24)

	// Lane table for the shared tail: tail(h) = h*tailMult + tailAdd[lo].
	// The representative h = lo is exact: the transform is affine per lane.
	tailMult := powPrime(71)
	var tailAdd [256]uint64
	for lo := 0; lo < 256; lo++ {
		tailAdd[lo] = mixTail(uint64(lo), b1, b2, b3, pattern) - uint64(lo)*tailMult
	}

	// Fold the 64 line transforms (low-byte step, then tail) into one.
	lineMult := fnv64Prime * tailMult
	x := &blockXform{mult: 1}
	for j := 0; j < blockLines; j++ {
		b0 := uint64(byte(ln + uint64(j)))
		newMult := x.mult * lineMult
		var add [256]uint64
		for lo := 0; lo < 256; lo++ {
			v := uint64(lo)*x.mult + x.add[lo] // acc applied to the lane representative
			v = (v ^ b0) * fnv64Prime          // line-number low byte
			v = v*tailMult + tailAdd[v&0xff]   // shared tail
			add[lo] = v - uint64(lo)*newMult
		}
		x.mult, x.add = newMult, add
	}
	return x
}
