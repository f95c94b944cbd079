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
//
// A run uses few of a sparse bank's entries (the paper's Figs 9a–c are
// about how few), so sparse storage allocates them 16 slots at a time,
// on the first Allocate into each chunk; lookups, room checks and victim
// choice go through an occupancy bitmap and never touch a chunk no entry
// has used.
package directory

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

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
//
// The fields are ordered widest first (the sixteen-byte sharer set, then
// the four-byte line, owner and LRU stamp, then three single bytes), so an
// Entry packs into 32 bytes and a sparse chunk of 16 into 512.
type Entry struct {
	Sharers Sharers
	Line    addr.Line
	Owner   int32
	lastUse uint32

	State     State
	Broadcast bool
	Pinned    bool // a directory transaction is in flight on this line
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

// Sparse entries come in chunks of chunkSize consecutive slots.
const (
	chunkShift = 4
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

type sparse struct {
	// chunks holds slot set*ways+way at chunks[slot>>chunkShift]
	// [slot&chunkMask]; a chunk is nil until an entry is allocated in it
	// and is never freed, so *Entry pointers stay stable. A directory
	// whose entry count is not a multiple of chunkSize rounds up to whole
	// chunks; the trailing slots belong to no set.
	chunks  []*[chunkSize]Entry
	nsets   int
	ways    int
	mask    uint64 // nsets-1 when nsets is a power of two, else 0
	tick    uint32 // renumbered near 2^32-1, as cache.Array's is
	count   int
	limited bool
	byClass [addr.NumClasses]uint64

	// occ has one bit per slot, set while the slot is allocated. Every
	// operation finds entries and free ways through it, so a chunk no
	// entry ever used is never read or allocated. The Table 3 sparse
	// geometry is 16K entries per bank in 128 sets × 128 ways of 32-byte
	// entries, 524,288 bytes if all were allocated, and a run uses few
	// of them.
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
		chunks:  make([]*[chunkSize]Entry, (entries+chunkMask)>>chunkShift),
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

// entry returns slot i, whose chunk must be allocated.
func (d *sparse) entry(i uint64) *Entry { return &d.chunks[i>>chunkShift][i&chunkMask] }

// slots returns the slot range [lo, hi) of line's set. The set index is
// a mask when the set count is a power of two (every real geometry),
// falling back to modulo for odd test-constructed ones.
func (d *sparse) slots(line addr.Line) (lo, hi uint64) {
	si := uint64(line) & d.mask
	if d.mask == 0 && d.nsets > 1 {
		si = uint64(line) % uint64(d.nsets)
	}
	lo = si * uint64(d.ways)
	return lo, lo + uint64(d.ways)
}

// inSet masks w, the occupancy word covering slots base to base+63, to
// the slots of the set [lo, hi).
func inSet(w, base, lo, hi uint64) uint64 {
	if base < lo {
		w &^= 1<<(lo-base) - 1
	}
	if hi-base < 64 {
		w &= 1<<(hi-base) - 1
	}
	return w
}

// findSlot returns the slot holding line, or -1. It scans the occupancy
// bitmap of line's set rather than the entries: the Table 3 sets are 128
// ways and mostly empty, so a miss costs two word loads and touches no
// chunk. This is the directory's hottest lookup path (one per L3-side
// request plus the end-of-run inclusivity sweep).
func (d *sparse) findSlot(line addr.Line) int {
	lo, hi := d.slots(line)
	for base := lo &^ 63; base < hi; base += 64 {
		for w := inSet(d.occ[base>>6], base, lo, hi); w != 0; w &= w - 1 {
			i := base + uint64(bits.TrailingZeros64(w))
			if d.entry(i).Line == line {
				return int(i)
			}
		}
	}
	return -1
}

// freeSlot returns the lowest free slot of the set [lo, hi), or -1 when
// the set is full.
func (d *sparse) freeSlot(lo, hi uint64) int {
	for base := lo &^ 63; base < hi; base += 64 {
		if w := inSet(^d.occ[base>>6], base, lo, hi); w != 0 {
			return int(base) + bits.TrailingZeros64(w)
		}
	}
	return -1
}

func (d *sparse) Limited() bool { return d.limited }

func (d *sparse) Lookup(line addr.Line) *Entry {
	if i := d.findSlot(line); i >= 0 {
		e := d.entry(uint64(i))
		e.lastUse = d.next()
		return e
	}
	return nil
}

func (d *sparse) HasRoom(line addr.Line) bool { return d.freeSlot(d.slots(line)) >= 0 }

// Victim picks the least recently used unpinned entry of a full set. A
// full set's chunks are all allocated.
func (d *sparse) Victim(line addr.Line) *Entry {
	lo, hi := d.slots(line)
	if d.freeSlot(lo, hi) >= 0 {
		return nil // room available
	}
	var victim *Entry
	for i := lo; i < hi; i++ {
		e := d.entry(i)
		if e.Pinned {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	return victim
}

// Allocate takes the lowest free way of line's set, allocating its chunk
// on first use.
func (d *sparse) Allocate(line addr.Line) *Entry {
	if d.findSlot(line) >= 0 {
		panic(simerr.Invariant(0, "directory", uint64(line.Base()), "Allocate of resident line"))
	}
	i := d.freeSlot(d.slots(line))
	if i < 0 {
		panic(simerr.Invariant(0, "directory", uint64(line.Base()), "Allocate with no room in set"))
	}
	c := d.chunks[i>>chunkShift]
	if c == nil {
		c = new([chunkSize]Entry)
		d.chunks[i>>chunkShift] = c
	}
	e := &c[i&chunkMask]
	*e = Entry{Line: line, lastUse: d.next()}
	d.count++
	d.byClass[addr.Classify(line.Base())]++
	d.occ[i>>6] |= 1 << (i & 63)
	return e
}

// next advances the tick and returns it, renumbering first when it is at
// its largest value.
func (d *sparse) next() uint32 {
	if d.tick == math.MaxUint32 {
		d.renumber()
	}
	d.tick++
	return d.tick
}

// renumber replaces the stamps of each set's entries by their ranks in LRU
// order (1 for the least recent) and sets the tick to the largest rank.
// Victim compares stamps only within a set, so no choice changes.
func (d *sparse) renumber() {
	d.tick = 0
	var order []*Entry
	for lo := uint64(0); lo < uint64(d.nsets*d.ways); lo += uint64(d.ways) {
		order = order[:0]
		hi := lo + uint64(d.ways)
		for base := lo &^ 63; base < hi; base += 64 {
			for w := inSet(d.occ[base>>6], base, lo, hi); w != 0; w &= w - 1 {
				order = append(order, d.entry(base+uint64(bits.TrailingZeros64(w))))
			}
		}
		slices.SortFunc(order, func(a, b *Entry) int { return cmp.Compare(a.lastUse, b.lastUse) })
		for r, e := range order {
			e.lastUse = uint32(r + 1)
		}
		d.tick = max(d.tick, uint32(len(order)))
	}
}

func (d *sparse) Remove(line addr.Line) {
	if i := d.findSlot(line); i >= 0 {
		d.byClass[addr.Classify(line.Base())]--
		*d.entry(uint64(i)) = Entry{}
		d.count--
		d.occ[i>>6] &^= 1 << (i & 63)
	}
}

func (d *sparse) Count() int { return d.count }

func (d *sparse) CountByClass() [addr.NumClasses]uint64 { return d.byClass }

func (d *sparse) ForEach(fn func(*Entry)) {
	for wi, word := range d.occ {
		for ; word != 0; word &= word - 1 {
			fn(d.entry(uint64(wi<<6 + bits.TrailingZeros64(word))))
		}
	}
}
