// Package cache implements the set-associative arrays used at every level
// of the simulated hierarchy (L1I, L1D, L2, L3 tags).
//
// Only the L2 holds values: its entries (Entry, in a Cache) carry a line
// of data words. The L1I, L1D and L3 arrays (Tags) hold tag entries (Tag)
// only, because an L1 hit reads the L2's copy and the L3's values live in
// the backing store. One generic array serves both payloads. An L3 bank
// holds its Tags in parts allocated on first use (LazyTags).
//
// Entries carry the metadata the Cohesion protocols need beyond a plain
// cache: per-word valid and dirty bit vectors (the paper's non-inclusive
// hierarchy keeps per-word dirty/valid bits so SWcc write-allocates can
// complete without fetching, and so the L3 can merge disjoint write sets),
// the per-line "incoherent" bit that marks SWcc lines in an L2 (paper
// §3.4), and a protocol state byte interpreted by the coherence engine.
package cache

import (
	"fmt"
	"math/bits"

	"cohesion/internal/addr"
)

// MSI states stored in Entry.State for lines in the HWcc domain. Lines in
// the SWcc domain are Valid with Incoherent set and State tracking nothing.
const (
	StateInvalid uint8 = iota
	StateShared
	StateModified
)

// Slot is one line's worth of state in an array whose entries carry a D
// payload.
type Slot[D any] struct {
	// Data comes first: Go pads a struct whose last field has zero size,
	// which would grow a Tag by a word.
	Data       D
	Line       addr.Line
	Valid      bool
	Pinned     bool // a transaction is in flight; not evictable
	Incoherent bool // line belongs to the SWcc domain (paper's per-line bit)
	State      uint8
	ValidMask  uint8 // bit w: word w holds valid data
	DirtyMask  uint8 // bit w: word w is dirty locally

	lastUse uint64
}

// Entry is an L2 line: its tag, state and data words. The Data words are
// only meaningful where ValidMask has the corresponding bit set.
type Entry = Slot[[addr.WordsPerLine]uint32]

// Tag is an L1 or L3 line: tag and state, no data.
type Tag = Slot[struct{}]

// FullMask has the valid/dirty bit set for every word of a line.
const FullMask = uint8(1<<addr.WordsPerLine - 1)

// Array is a set-associative array with LRU replacement.
type Array[D any] struct {
	ents  []Slot[D] // slot set*ways+way
	nsets int
	ways  int
	mask  uint64 // nsets-1 when nsets is a power of two, else 0
	tick  uint64
	valid int

	// occ has one bit per slot (set*ways+way), set while the slot holds a
	// valid entry. ForEach scans it instead of streaming the whole entry
	// array: end-of-run sweeps (invariant checks, dirty drains) touch only
	// live entries, which for a sparsely used cache is orders of magnitude
	// less memory traffic.
	occ []uint64
}

// Cache is the L2's array, the only one that holds data.
type Cache = Array[[addr.WordsPerLine]uint32]

// Tags is a tag-only array: the L1I, the L1D and each part of an L3 bank.
type Tags = Array[struct{}]

// New builds an L2 of sizeBytes capacity and the given associativity.
// sizeBytes must be a multiple of assoc lines.
func New(sizeBytes, assoc int) *Cache { return newArray[[addr.WordsPerLine]uint32](sizeBytes, assoc) }

// NewTags builds a tag-only array of the geometry New takes.
func NewTags(sizeBytes, assoc int) *Tags { return newArray[struct{}](sizeBytes, assoc) }

func newArray[D any](sizeBytes, assoc int) *Array[D] {
	lines := sizeBytes / addr.LineBytes
	if lines < 1 || assoc < 1 || lines%assoc != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes %d-way", sizeBytes, assoc))
	}
	nsets := lines / assoc
	c := &Array[D]{ents: make([]Slot[D], lines), nsets: nsets, ways: assoc, occ: make([]uint64, (lines+63)/64)}
	if nsets&(nsets-1) == 0 {
		c.mask = uint64(nsets - 1)
	}
	return c
}

// Sets and Ways report the geometry; Lines the total capacity in lines.
func (c *Array[D]) Sets() int  { return c.nsets }
func (c *Array[D]) Ways() int  { return c.ways }
func (c *Array[D]) Lines() int { return len(c.ents) }

// Count reports how many entries are currently valid.
func (c *Array[D]) Count() int { return c.valid }

// set returns the ways of set si.
func (c *Array[D]) set(si uint64) []Slot[D] {
	base := si * uint64(c.ways)
	end := base + uint64(c.ways)
	return c.ents[base:end:end]
}

// setIdx returns the set for a line. Set counts are powers of two in every
// real geometry, so indexing is a mask; the modulo fallback (a hardware
// divide, measurably hot at one per cache access) only runs for odd
// test-constructed geometries.
func (c *Array[D]) setIdx(line addr.Line) uint64 {
	if c.mask != 0 || c.nsets == 1 {
		return uint64(line) & c.mask
	}
	return uint64(line) % uint64(c.nsets)
}

// markSlot and clearSlot maintain the occupancy bitmap for slot w of the
// given set.
func (c *Array[D]) markSlot(setIdx uint64, w int) {
	i := setIdx*uint64(c.ways) + uint64(w)
	c.occ[i>>6] |= 1 << (i & 63)
}

func (c *Array[D]) clearSlot(setIdx uint64, w int) {
	i := setIdx*uint64(c.ways) + uint64(w)
	c.occ[i>>6] &^= 1 << (i & 63)
}

// Lookup returns the entry holding line and refreshes its LRU position, or
// nil on a miss. The returned pointer stays valid until the entry is
// evicted; callers mutate protocol state through it.
func (c *Array[D]) Lookup(line addr.Line) *Slot[D] {
	set := c.set(c.setIdx(line))
	for i := range set {
		if set[i].Valid && set[i].Line == line {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i]
		}
	}
	return nil
}

// Peek is Lookup without the LRU refresh; used by probes and invariant
// checks so observation does not perturb replacement. It slices its set
// itself: through set, a generic Peek outgrows the inlining budget.
func (c *Array[D]) Peek(line addr.Line) *Slot[D] {
	base := c.setIdx(line) * uint64(c.ways)
	end := base + uint64(c.ways)
	set := c.ents[base:end:end]
	for i := range set {
		if set[i].Valid && set[i].Line == line {
			return &set[i]
		}
	}
	return nil
}

// Allocate installs line, evicting the LRU non-pinned way if the set is
// full. It returns the (reset) entry for the new line and, if a valid line
// was displaced, a copy of the victim so the caller can issue writebacks or
// release messages. Allocating a line that is already present panics: the
// controller must Lookup first.
//
// The new entry starts Valid with empty masks, StateInvalid protocol state,
// and the incoherent bit clear; the caller fills it in.
func (c *Array[D]) Allocate(line addr.Line) (entry *Slot[D], victim Slot[D], evicted bool) {
	si := c.setIdx(line)
	set := c.set(si)
	slotW := -1
	for i := range set {
		e := &set[i]
		if e.Valid && e.Line == line {
			panic(fmt.Sprintf("cache: Allocate of resident line %#x", uint64(line)))
		}
		if e.Valid {
			if e.Pinned {
				continue
			}
			if slotW < 0 || (set[slotW].Valid && e.lastUse < set[slotW].lastUse) {
				slotW = i
			}
		} else if slotW < 0 || set[slotW].Valid {
			slotW = i // always prefer an invalid way
		}
	}
	if slotW < 0 {
		panic(fmt.Sprintf("cache: set for line %#x fully pinned", uint64(line)))
	}
	slot := &set[slotW]
	if slot.Valid {
		victim, evicted = *slot, true
		c.valid--
	}
	c.tick++
	*slot = Slot[D]{Line: line, Valid: true, lastUse: c.tick}
	c.valid++
	c.markSlot(si, slotW)
	return slot, victim, evicted
}

// Invalidate drops line if present, returning a copy of the dropped entry.
func (c *Array[D]) Invalidate(line addr.Line) (dropped Slot[D], was bool) {
	si := c.setIdx(line)
	set := c.set(si)
	for i := range set {
		if set[i].Valid && set[i].Line == line {
			dropped, was = set[i], true
			set[i] = Slot[D]{}
			c.valid--
			c.clearSlot(si, i)
			return
		}
	}
	return
}

// ForEach calls fn for every valid entry, in set then way order. fn may
// mutate entries but must not invalidate or allocate.
func (c *Array[D]) ForEach(fn func(*Slot[D])) {
	for wi, word := range c.occ {
		for ; word != 0; word &= word - 1 {
			fn(&c.ents[wi<<6+bits.TrailingZeros64(word)])
		}
	}
}

// partSets is how many sets one part of a LazyTags array holds.
const partSets = 8

// LazyTags is a tag-only array held as independent Tags parts of partSets
// sets each, a part allocated on its first Allocate, so an array pays only
// for the sets its lines reach. It serves the L3 banks, which are large,
// sparsely reached, and looked up once per home access; the L1 and L2
// arrays stay flat because their lookups are the hot path. A set count
// that is not a multiple of partSets keeps a single part.
//
// Replacement is the flat array's: LRU compares lastUse only within a
// set, each set lives in exactly one part, and that part's tick only
// grows.
type LazyTags struct {
	parts     []*Tags
	partBytes int // one part's capacity
	ways      int
	nsets     int
	mask      uint64 // nsets-1 when nsets is a power of two, else 0
}

// NewLazyTags builds a part-wise tag array of the geometry NewTags takes.
// It allocates no part.
func NewLazyTags(sizeBytes, assoc int) *LazyTags {
	lines := sizeBytes / addr.LineBytes
	if lines < 1 || assoc < 1 || lines%assoc != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes %d-way", sizeBytes, assoc))
	}
	t := &LazyTags{ways: assoc, nsets: lines / assoc}
	nparts, per := t.nsets/partSets, partSets
	if t.nsets%partSets != 0 {
		nparts, per = 1, t.nsets
	}
	if t.nsets&(t.nsets-1) == 0 {
		t.mask = uint64(t.nsets - 1)
	}
	t.parts = make([]*Tags, nparts)
	t.partBytes = per * assoc * addr.LineBytes
	return t
}

// part returns the slot of the part holding line's set. Within a part, a
// line's set is line mod partSets (or the single part's own index), which
// is its set mod partSets because partSets divides the set count.
func (t *LazyTags) part(line addr.Line) **Tags {
	if len(t.parts) == 1 {
		return &t.parts[0]
	}
	si := uint64(line) & t.mask
	if t.mask == 0 {
		si = uint64(line) % uint64(t.nsets)
	}
	return &t.parts[si/partSets]
}

// Lookup is Array.Lookup; a line in a part never allocated misses.
func (t *LazyTags) Lookup(line addr.Line) *Tag {
	if p := *t.part(line); p != nil {
		return p.Lookup(line)
	}
	return nil
}

// Peek is Array.Peek; a line in a part never allocated misses.
func (t *LazyTags) Peek(line addr.Line) *Tag {
	if p := *t.part(line); p != nil {
		return p.Peek(line)
	}
	return nil
}

// Allocate is Array.Allocate, allocating line's part first if needed.
func (t *LazyTags) Allocate(line addr.Line) (entry *Tag, victim Tag, evicted bool) {
	pp := t.part(line)
	if *pp == nil {
		*pp = NewTags(t.partBytes, t.ways)
	}
	return (*pp).Allocate(line)
}

// WordBit returns the dirty/valid mask bit for the word containing a.
func WordBit(a addr.Addr) uint8 { return 1 << addr.WordIndex(a) }
