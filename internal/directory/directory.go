// Package directory implements the on-die directory storage the HWcc
// protocol uses to track sharers of cache lines (paper §3.2).
//
// Three organizations are provided, matching the paper's design points:
//
//   - Infinite: a full-map directory with unbounded capacity and full
//     associativity. This is the optimistic "HWcc ideal" bound that
//     eliminates directory evictions entirely.
//   - Sparse: a realistic set-associative sparse full-map directory
//     (16K entries, 128-way, per L3 bank in Table 3). Entries exist only
//     for lines present in at least one L2; capacity evictions invalidate
//     all sharers of the victim line.
//   - Limited (Dir4B): sparse storage whose entries hold at most four
//     sharer pointers; adding a fifth sharer sets a broadcast bit, after
//     which invalidations must be broadcast to every cluster.
//
// One directory bank is collocated with each L3 bank; requests for a line
// are serialized through its home bank, so the storage layer here is
// purely sequential state.
package directory

import (
	"math/bits"

	"cohesion/internal/addr"
	"cohesion/internal/linetab"
	"cohesion/internal/simerr"
)

// MaxClusters bounds the sharer bitset width (the Table 3 machine has 128).
const MaxClusters = 128

// LimitedPointers is the pointer count of the Dir4B scheme.
const LimitedPointers = 4

// Sharers is a fixed-width bitset of cluster IDs.
type Sharers [MaxClusters / 64]uint64

// Add sets cluster c; it reports whether c was newly added.
func (s *Sharers) Add(c int) bool {
	w, b := c/64, uint(c%64)
	if s[w]&(1<<b) != 0 {
		return false
	}
	s[w] |= 1 << b
	return true
}

// Remove clears cluster c; it reports whether c was present.
func (s *Sharers) Remove(c int) bool {
	w, b := c/64, uint(c%64)
	if s[w]&(1<<b) == 0 {
		return false
	}
	s[w] &^= 1 << b
	return true
}

// Has reports whether cluster c is in the set.
func (s Sharers) Has(c int) bool { return s[c/64]&(1<<uint(c%64)) != 0 }

// Count returns the number of sharers.
func (s Sharers) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no sharers remain.
func (s Sharers) Empty() bool { return s == Sharers{} }

// ForEach calls fn for each sharer in ascending cluster order.
func (s Sharers) ForEach(fn func(cluster int)) {
	for wi, w := range s {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// State is the directory's view of a line.
type State uint8

const (
	// Shared: one or more clusters hold the line clean.
	Shared State = iota
	// Modified: exactly one cluster owns the line dirty.
	Modified
)

func (s State) String() string {
	if s == Shared {
		return "S"
	}
	return "M"
}

// Entry is one directory entry. For Modified lines Owner identifies the
// owning cluster and Sharers contains only the owner. For limited
// directories Broadcast means the precise sharer set was lost to pointer
// overflow and invalidations must go to every cluster.
type Entry struct {
	Line      addr.Line
	State     State
	Sharers   Sharers
	Owner     int
	Broadcast bool
	Pinned    bool // a directory transaction is in flight on this line

	lastUse uint64
}

// Directory is the storage interface shared by all three organizations.
type Directory interface {
	// Lookup returns the entry for line, or nil.
	Lookup(line addr.Line) *Entry
	// HasRoom reports whether Allocate(line) would succeed without a
	// capacity eviction.
	HasRoom(line addr.Line) bool
	// Victim returns the entry that must be torn down before line can be
	// allocated, or nil if there is room. Pinned entries are never chosen;
	// if every candidate is pinned, Victim returns nil and HasRoom false —
	// the controller must retry after a transaction drains.
	Victim(line addr.Line) *Entry
	// Allocate installs a fresh Shared entry with no sharers. It panics if
	// the line is resident or there is no room.
	Allocate(line addr.Line) *Entry
	// Remove deallocates the entry for line if present.
	Remove(line addr.Line)
	// Count reports the number of allocated entries.
	Count() int
	// CountByClass breaks Count down by address class (Fig 9c).
	CountByClass() [addr.NumClasses]uint64
	// ForEach visits every allocated entry.
	ForEach(fn func(*Entry))
	// Limited reports whether the organization is pointer-limited (Dir4B);
	// the protocol consults this when adding sharers.
	Limited() bool
}

// AddSharer records cluster as a sharer of e, honoring the pointer limit
// of limited organizations: when a fifth sharer arrives, the broadcast bit
// is set and the precise set is no longer trusted. It reports whether this
// call newly set the broadcast bit (a pointer overflow).
func AddSharer(d Directory, e *Entry, cluster int) bool {
	overflow := d.Limited() && !e.Broadcast && !e.Sharers.Has(cluster) && e.Sharers.Count() >= LimitedPointers
	if overflow {
		e.Broadcast = true
	}
	e.Sharers.Add(cluster)
	return overflow
}

// --- Infinite full-map ---

// infinite stores entries in an open-addressed table with a free list of
// Entry records: pointers handed out by Lookup/Allocate stay stable while
// the line is resident (the table moves only pointers on growth), and
// steady-state allocate/remove churn recycles records instead of
// allocating.
type infinite struct {
	entries linetab.Table[*freeEntry]
	free    *freeEntry
}

// freeEntry chains recycled Entry records. Entry itself carries no link
// field (it is the public protocol type), so the free list wraps it.
type freeEntry struct {
	e    Entry
	next *freeEntry
}

// NewInfinite returns the optimistic unbounded full-map directory.
func NewInfinite() Directory {
	return &infinite{}
}

func (d *infinite) Lookup(line addr.Line) *Entry {
	if f, ok := d.entries.Get(line); ok {
		return &f.e
	}
	return nil
}
func (d *infinite) HasRoom(addr.Line) bool  { return true }
func (d *infinite) Victim(addr.Line) *Entry { return nil }
func (d *infinite) Limited() bool           { return false }

func (d *infinite) Allocate(line addr.Line) *Entry {
	if _, ok := d.entries.Get(line); ok {
		// The cycle is unknown at this layer; machine.Simulate fills it in
		// when it recovers the panic.
		panic(simerr.Invariant(0, "directory", uint64(line.Base()), "Allocate of resident line"))
	}
	f := d.free
	if f == nil {
		f = &freeEntry{}
	} else {
		d.free = f.next
		f.next = nil
	}
	f.e = Entry{Line: line}
	d.entries.Put(line, f)
	return &f.e
}

func (d *infinite) Remove(line addr.Line) {
	f, ok := d.entries.Get(line)
	if !ok {
		return
	}
	d.entries.Delete(line)
	f.next = d.free
	d.free = f
}

func (d *infinite) Count() int { return d.entries.Len() }

func (d *infinite) CountByClass() [addr.NumClasses]uint64 {
	var out [addr.NumClasses]uint64
	d.entries.ForEach(func(line addr.Line, _ *freeEntry) {
		out[addr.Classify(line.Base())]++
	})
	return out
}

func (d *infinite) ForEach(fn func(*Entry)) {
	d.entries.ForEach(func(_ addr.Line, f *freeEntry) { fn(&f.e) })
}

// --- Sparse set-associative (full-map or limited) ---

type sparse struct {
	ents    []Entry // slot set*ways+way
	nsets   int
	ways    int
	mask    uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint64
	count   int
	limited bool
	byClass [addr.NumClasses]uint64

	// occ has one bit per slot, set while the slot is allocated. ForEach
	// scans it instead of streaming the whole entry array — the Table 3
	// sparse geometry is 16K entries per bank in 128 sets × 128 ways of
	// 56-byte entries (917,504 bytes), most of it empty at end of run
	// when the invariant sweep walks it.
	occ []uint64
}

// NewSparse returns a set-associative sparse directory of the given total
// entry count. assoc 0 means fully associative (one set).
func NewSparse(entries, assoc int, limited bool) Directory {
	if entries < 1 {
		panic(simerr.Config("directory needs at least one entry"))
	}
	if assoc <= 0 || assoc > entries {
		assoc = entries
	}
	if entries%assoc != 0 {
		panic(simerr.Config("directory entries %d not a multiple of assoc %d", entries, assoc))
	}
	nsets := entries / assoc
	d := &sparse{
		ents:    make([]Entry, entries),
		nsets:   nsets,
		ways:    assoc,
		limited: limited,
		occ:     make([]uint64, (entries+63)/64),
	}
	if nsets&(nsets-1) == 0 {
		d.mask = uint64(nsets - 1)
	}
	return d
}

// set returns the ways of set si.
func (d *sparse) set(si uint64) []Entry {
	base := si * uint64(d.ways)
	end := base + uint64(d.ways)
	return d.ents[base:end:end]
}

// setIdx indexes by mask when the set count is a power of two (every real
// geometry), falling back to modulo for odd test-constructed ones.
func (d *sparse) setIdx(line addr.Line) uint64 {
	if d.mask != 0 || d.nsets == 1 {
		return uint64(line) & d.mask
	}
	return uint64(line) % uint64(d.nsets)
}

// findSlot returns the slot holding line, or -1. It scans the occupancy
// bitmap of line's set rather than the entry array: the Table 3 sets are
// 128 ways (7 KiB of entries) and mostly empty, so a miss costs two word
// loads instead of a 7 KiB stream. This is the directory's hottest lookup
// path (one per L3-side request plus the end-of-run inclusivity sweep).
func (d *sparse) findSlot(line addr.Line) int {
	lo := d.setIdx(line) * uint64(d.ways)
	hi := lo + uint64(d.ways)
	for base := lo &^ 63; base < hi; base += 64 {
		word := d.occ[base>>6]
		if base < lo {
			word &^= 1<<(lo-base) - 1
		}
		if hi-base < 64 {
			word &= 1<<(hi-base) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := base + uint64(bits.TrailingZeros64(word))
			if d.ents[i].Line == line {
				return int(i)
			}
		}
	}
	return -1
}

func (d *sparse) Limited() bool { return d.limited }

func (d *sparse) Lookup(line addr.Line) *Entry {
	if i := d.findSlot(line); i >= 0 {
		e := &d.ents[i]
		d.tick++
		e.lastUse = d.tick
		return e
	}
	return nil
}

func (d *sparse) HasRoom(line addr.Line) bool {
	set := d.set(d.setIdx(line))
	for i := range set {
		if set[i].lastUse == 0 {
			return true
		}
	}
	return false
}

func (d *sparse) Victim(line addr.Line) *Entry {
	set := d.set(d.setIdx(line))
	var victim *Entry
	for i := range set {
		e := &set[i]
		if e.lastUse == 0 {
			return nil // room available
		}
		if e.Pinned {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

func (d *sparse) Allocate(line addr.Line) *Entry {
	si := d.setIdx(line)
	set := d.set(si)
	slotW := -1
	for i := range set {
		e := &set[i]
		if e.lastUse != 0 && e.Line == line {
			panic(simerr.Invariant(0, "directory", uint64(line.Base()), "Allocate of resident line"))
		}
		if e.lastUse == 0 && slotW < 0 {
			slotW = i
		}
	}
	if slotW < 0 {
		panic(simerr.Invariant(0, "directory", uint64(line.Base()), "Allocate with no room in set"))
	}
	d.tick++
	set[slotW] = Entry{Line: line, lastUse: d.tick}
	d.count++
	d.byClass[addr.Classify(line.Base())]++
	i := si*uint64(d.ways) + uint64(slotW)
	d.occ[i>>6] |= 1 << (i & 63)
	return &set[slotW]
}

func (d *sparse) Remove(line addr.Line) {
	if i := d.findSlot(line); i >= 0 {
		d.byClass[addr.Classify(line.Base())]--
		d.ents[i] = Entry{}
		d.count--
		d.occ[i>>6] &^= 1 << (i & 63)
	}
}

func (d *sparse) Count() int { return d.count }

func (d *sparse) CountByClass() [addr.NumClasses]uint64 { return d.byClass }

func (d *sparse) ForEach(fn func(*Entry)) {
	for wi, word := range d.occ {
		for ; word != 0; word &= word - 1 {
			fn(&d.ents[wi<<6+bits.TrailingZeros64(word)])
		}
	}
}
