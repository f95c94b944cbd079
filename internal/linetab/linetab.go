// Package linetab provides the open-addressed hash tables the protocol
// hot paths use in place of builtin maps: an addr.Line-keyed table
// (L2 transaction tracking, the infinite directory) and a uint64 set
// (serviced-request dedup at the home banks, which only a machine with a
// fault plan keeps: without one no request is ever delivered twice).
//
// The builtin map is general: it hashes with a per-process random seed,
// iterates in randomized order, and grows through buckets with overflow
// chains. The protocol layers need none of that generality — keys are
// line numbers that already mix well under one multiplicative hash, the
// working set churns (a transaction table holds tens of in-flight lines,
// inserted and deleted millions of times), and determinism is a hard
// requirement everywhere. These tables use linear probing over a
// power-of-two slot array with tombstone deletion, and iterate in slot
// order, which is a pure function of the operation history — two
// identical simulations visit entries identically, so iteration feeds
// directly into invariant checks and drains without sorting.
//
// Values are typically pointers into caller-owned free lists (l2txn,
// directory.Entry), which keeps entry addresses stable across table
// growth — the table stores and moves only (key, pointer) pairs.
// Semantics are conformance-tested against the builtin map on randomized
// operation sequences.
package linetab

import "cohesion/internal/addr"

// slot states. Tombstones keep probe chains intact across deletion; they
// are reclaimed wholesale on the next grow/rehash.
const (
	empty uint8 = iota
	full
	tomb
)

const minCap = 16

// hash is Fibonacci multiplicative hashing; the high bits (taken by the
// caller's shift) are well mixed even for sequential keys.
func hash(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 }

// Table is an open-addressed map from addr.Line to V. The zero value is
// an empty table ready for use.
type Table[V any] struct {
	lines []addr.Line
	vals  []V
	state []uint8
	shift uint // index = hash >> shift; len(lines) == 1<<(64-shift)
	live  int  // full slots
	used  int  // full + tombstone slots
}

// Len reports the number of entries.
func (t *Table[V]) Len() int { return t.live }

// Get returns the value stored for line.
func (t *Table[V]) Get(line addr.Line) (v V, ok bool) {
	if t.live == 0 {
		return v, false
	}
	mask := uint64(len(t.lines) - 1)
	for i := hash(uint64(line)) >> t.shift; ; i = (i + 1) & mask {
		switch t.state[i] {
		case empty:
			return v, false
		case full:
			if t.lines[i] == line {
				return t.vals[i], true
			}
		}
	}
}

// Put inserts or replaces the value for line.
func (t *Table[V]) Put(line addr.Line, v V) {
	if t.used*4 >= len(t.lines)*3 {
		t.grow()
	}
	mask := uint64(len(t.lines) - 1)
	ins := -1 // first tombstone on the probe path, reusable for insert
	for i := hash(uint64(line)) >> t.shift; ; i = (i + 1) & mask {
		switch t.state[i] {
		case empty:
			if ins < 0 {
				ins = int(i)
				t.used++
			}
			t.lines[ins] = line
			t.vals[ins] = v
			t.state[ins] = full
			t.live++
			return
		case full:
			if t.lines[i] == line {
				t.vals[i] = v
				return
			}
		case tomb:
			if ins < 0 {
				ins = int(i)
			}
		}
	}
}

// Delete removes line's entry, reporting whether it was present.
func (t *Table[V]) Delete(line addr.Line) bool {
	if t.live == 0 {
		return false
	}
	mask := uint64(len(t.lines) - 1)
	for i := hash(uint64(line)) >> t.shift; ; i = (i + 1) & mask {
		switch t.state[i] {
		case empty:
			return false
		case full:
			if t.lines[i] == line {
				var zero V
				t.vals[i] = zero
				t.state[i] = tomb
				t.live--
				return true
			}
		}
	}
}

// ForEach visits every entry in slot order — a deterministic function of
// the operation history. fn must not mutate the table.
func (t *Table[V]) ForEach(fn func(addr.Line, V)) {
	for i, s := range t.state {
		if s == full {
			fn(t.lines[i], t.vals[i])
		}
	}
}

// grow rehashes, reclaiming every tombstone: doubling capacity when the
// table is genuinely at least half live, rehashing in place otherwise —
// a churning table of stable size settles at a fixed capacity.
func (t *Table[V]) grow() {
	newCap := len(t.lines)
	switch {
	case newCap == 0:
		newCap = minCap
	case 2*t.live >= newCap:
		newCap *= 2
	}
	oldLines, oldVals, oldState := t.lines, t.vals, t.state
	t.lines = make([]addr.Line, newCap)
	t.vals = make([]V, newCap)
	t.state = make([]uint8, newCap)
	t.shift = 64 - uint(log2(newCap))
	t.live, t.used = 0, 0
	mask := uint64(newCap - 1)
	for j, s := range oldState {
		if s != full {
			continue
		}
		line := oldLines[j]
		for i := hash(uint64(line)) >> t.shift; ; i = (i + 1) & mask {
			if t.state[i] != full {
				t.lines[i] = line
				t.vals[i] = oldVals[j]
				t.state[i] = full
				t.live++
				t.used++
				break
			}
		}
	}
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// Set is an open-addressed set of uint64 keys with the same probing and
// determinism properties as Table. The zero value is ready for use.
// Clear retains capacity, so an epoch-rotated set (the home banks'
// serviced-ID window under fault injection) reaches a steady state with
// no allocation.
type Set struct {
	keys  []uint64
	state []uint8
	shift uint
	live  int
	used  int
}

// Len reports the number of keys in the set.
func (s *Set) Len() int { return s.live }

// Has reports whether k is in the set.
func (s *Set) Has(k uint64) bool {
	if s.live == 0 {
		return false
	}
	mask := uint64(len(s.keys) - 1)
	for i := hash(k) >> s.shift; ; i = (i + 1) & mask {
		switch s.state[i] {
		case empty:
			return false
		case full:
			if s.keys[i] == k {
				return true
			}
		}
	}
}

// Add inserts k.
func (s *Set) Add(k uint64) {
	if s.used*4 >= len(s.keys)*3 {
		s.grow()
	}
	mask := uint64(len(s.keys) - 1)
	ins := -1
	for i := hash(k) >> s.shift; ; i = (i + 1) & mask {
		switch s.state[i] {
		case empty:
			if ins < 0 {
				ins = int(i)
				s.used++
			}
			s.keys[ins] = k
			s.state[ins] = full
			s.live++
			return
		case full:
			if s.keys[i] == k {
				return
			}
		case tomb:
			if ins < 0 {
				ins = int(i)
			}
		}
	}
}

// Clear empties the set, retaining capacity.
func (s *Set) Clear() {
	for i := range s.state {
		s.state[i] = empty
	}
	s.live, s.used = 0, 0
}

func (s *Set) grow() {
	newCap := len(s.keys)
	switch {
	case newCap == 0:
		newCap = minCap
	case 2*s.live >= newCap:
		newCap *= 2
	}
	oldKeys, oldState := s.keys, s.state
	s.keys = make([]uint64, newCap)
	s.state = make([]uint8, newCap)
	s.shift = 64 - uint(log2(newCap))
	s.live, s.used = 0, 0
	mask := uint64(newCap - 1)
	for j, st := range oldState {
		if st != full {
			continue
		}
		k := oldKeys[j]
		for i := hash(k) >> s.shift; ; i = (i + 1) & mask {
			if s.state[i] != full {
				s.keys[i] = k
				s.state[i] = full
				s.live++
				s.used++
				break
			}
		}
	}
}
