package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"cohesion/internal/addr"
)

// bothPayloads runs a test on the L2's data-carrying array and on a
// tag-only array, each built by its own constructor.
func bothPayloads(t *testing.T, l2, tags func(*testing.T)) {
	t.Run("L2", l2)
	t.Run("tags", tags)
}

// stamp marks an entry with v in every field its payload has room for:
// the dirty mask, and in an L2 entry the first data word. stampOf reads
// the mark back, or -1 where the two disagree, so a test can follow an
// entry's own contents through lookups, copies and evictions.
func stamp[D any](e *Slot[D], v uint8) {
	e.DirtyMask = v
	if words, ok := any(&e.Data).(*[addr.WordsPerLine]uint32); ok {
		words[0] = uint32(v)
	}
}

func stampOf[D any](e *Slot[D]) int {
	if words, ok := any(&e.Data).(*[addr.WordsPerLine]uint32); ok && words[0] != uint32(e.DirtyMask) {
		return -1
	}
	return int(e.DirtyMask)
}

func TestGeometry(t *testing.T) {
	c := New(64<<10, 16) // the Table-3 L2
	if c.Lines() != 2048 || c.Sets() != 128 || c.Ways() != 16 {
		t.Fatalf("geometry = %d lines, %d sets, %d ways", c.Lines(), c.Sets(), c.Ways())
	}
}

// sink keeps the caches TestNewAllocatesPerCacheNotPerSet builds on the
// heap.
var sink any

// TestNewAllocatesPerCacheNotPerSet locks in that a cache holds its
// entries in one array indexed set*ways+way: building one costs the same
// few allocations at every level of the hierarchy, however many sets it
// has, with the data-carrying and the tag-only constructor alike.
func TestNewAllocatesPerCacheNotPerSet(t *testing.T) {
	l2 := func(size, assoc int) any { return New(size, assoc) }
	tags := func(size, assoc int) any { return NewTags(size, assoc) }
	for _, g := range []struct {
		name        string
		size, assoc int
		build       func(size, assoc int) any
	}{
		{"L1I", 2 << 10, 2, tags},
		{"L1D", 1 << 10, 2, tags},
		{"L2", 64 << 10, 16, l2},
		{"L3 bank", 128 << 10, 8, tags},
	} {
		if n := testing.AllocsPerRun(10, func() { sink = g.build(g.size, g.assoc) }); n > 4 {
			t.Errorf("%s: building a %d-byte %d-way array made %.0f allocations, want at most 4", g.name, g.size, g.assoc, n)
		}
	}
}

// TestEntrySizes holds each payload's entry to its footprint: a tag entry
// is its line, flags, masks and LRU stamp with no padding after them, and
// an L2 entry adds its data words.
func TestEntrySizes(t *testing.T) {
	if n := unsafe.Sizeof(Tag{}); n > 24 {
		t.Errorf("a tag entry is %d bytes, want at most 24", n)
	}
	if n := unsafe.Sizeof(Entry{}); n > 56 {
		t.Errorf("an L2 entry is %d bytes, want at most 56", n)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	New(96, 4) // 3 lines, 4 ways
}

func TestAllocateLookupInvalidate(t *testing.T) {
	c := New(1<<10, 2)
	e, _, ev := c.Allocate(7)
	if ev {
		t.Fatal("eviction from empty cache")
	}
	e.State = StateShared
	e.ValidMask = FullMask
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
	got := c.Lookup(7)
	if got == nil || got.State != StateShared {
		t.Fatal("Lookup lost state")
	}
	if c.Lookup(8) != nil {
		t.Fatal("phantom hit")
	}
	d, was := c.Invalidate(7)
	if !was || d.State != StateShared {
		t.Fatal("Invalidate lost entry")
	}
	if c.Count() != 0 || c.Peek(7) != nil {
		t.Fatal("entry survived invalidation")
	}
	if _, was := c.Invalidate(7); was {
		t.Fatal("double invalidate reported a drop")
	}
}

func TestAllocateResidentPanics(t *testing.T) {
	c := New(1<<10, 2)
	c.Allocate(3)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate accepted")
		}
	}()
	c.Allocate(3)
}

func TestLRUEviction(t *testing.T) { bothPayloads(t, testLRUEviction(New), testLRUEviction(NewTags)) }

func testLRUEviction[D any](build func(int, int) *Array[D]) func(*testing.T) {
	return func(t *testing.T) {
		c := build(64, 2) // one set, two ways
		c.Allocate(0)
		c.Allocate(2)
		c.Lookup(0) // 0 now MRU; 2 is LRU
		_, victim, ev := c.Allocate(4)
		if !ev || victim.Line != 2 {
			t.Fatalf("evicted %v (ev=%v), want line 2", victim.Line, ev)
		}
		if c.Peek(0) == nil || c.Peek(4) == nil || c.Peek(2) != nil {
			t.Fatal("post-eviction contents wrong")
		}
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	bothPayloads(t, testPinnedNotEvicted(New), testPinnedNotEvicted(NewTags))
}

func testPinnedNotEvicted[D any](build func(int, int) *Array[D]) func(*testing.T) {
	return func(t *testing.T) {
		c := build(64, 2)
		a, _, _ := c.Allocate(0)
		a.Pinned = true
		c.Allocate(2)
		_, victim, ev := c.Allocate(4) // must evict 2 even though 0 is LRU
		if !ev || victim.Line != 2 {
			t.Fatalf("evicted line %d, want 2", victim.Line)
		}
		if c.Peek(0) == nil {
			t.Fatal("pinned line evicted")
		}
	}
}

func TestFullyPinnedPanics(t *testing.T) {
	c := New(64, 2)
	a, _, _ := c.Allocate(0)
	b, _, _ := c.Allocate(2)
	a.Pinned, b.Pinned = true, true
	defer func() {
		if recover() == nil {
			t.Fatal("allocation into fully pinned set succeeded")
		}
	}()
	c.Allocate(4)
}

func TestVictimCopyIndependent(t *testing.T) {
	bothPayloads(t, testVictimCopyIndependent(New), testVictimCopyIndependent(NewTags))
}

func testVictimCopyIndependent[D any](build func(int, int) *Array[D]) func(*testing.T) {
	return func(t *testing.T) {
		c := build(64, 1)
		e, _, _ := c.Allocate(1)
		stamp(e, 1<<3)
		_, victim, ev := c.Allocate(3) // same set as line 1 in a 2-set cache
		if !ev || stampOf(&victim) != 1<<3 {
			t.Fatal("victim copy lost its contents")
		}
		// Mutating the new resident must not affect the victim copy.
		stamp(c.Lookup(3), 1)
		if stampOf(&victim) != 1<<3 {
			t.Fatal("victim aliases live entry")
		}
	}
}

func TestForEach(t *testing.T) { bothPayloads(t, testForEach(New), testForEach(NewTags)) }

func testForEach[D any](build func(int, int) *Array[D]) func(*testing.T) {
	return func(t *testing.T) {
		c := build(1<<10, 4)
		for i := addr.Line(0); i < 10; i++ {
			c.Allocate(i)
		}
		n, seen := 0, uint64(0)
		c.ForEach(func(e *Slot[D]) { n, seen = n+1, seen|1<<e.Line })
		if n != 10 || seen != 1<<10-1 {
			t.Fatalf("ForEach visited %d entries, lines %b, want lines 0-9 once each", n, seen)
		}
	}
}

func TestWordBit(t *testing.T) {
	if WordBit(0x100) != 1 || WordBit(0x104) != 2 || WordBit(0x11c) != 0x80 {
		t.Fatal("WordBit wrong")
	}
}

// lruModel is the reference for a cache's contents and replacement: per
// set, its resident lines from least to most recently used, with their
// stamp and pin bit. Lookup and Allocate make a line most recent; Peek
// does not; a full set evicts its least recent unpinned line.
type lruModel struct {
	sets   [][]addr.Line
	data   map[addr.Line]uint8
	pinned map[addr.Line]bool
	ways   int
}

func newLRUModel(sets, ways int) *lruModel {
	return &lruModel{sets: make([][]addr.Line, sets), data: map[addr.Line]uint8{},
		pinned: map[addr.Line]bool{}, ways: ways}
}

func (m *lruModel) set(line addr.Line) *[]addr.Line { return &m.sets[int(line)%len(m.sets)] }

// remove drops line from its set's recency list.
func (m *lruModel) remove(line addr.Line) {
	set := m.set(line)
	for i, l := range *set {
		if l == line {
			*set = append((*set)[:i], (*set)[i+1:]...)
			break
		}
	}
	delete(m.data, line)
	delete(m.pinned, line)
}

// touch makes a resident line the most recent of its set.
func (m *lruModel) touch(line addr.Line) {
	v, pin := m.data[line], m.pinned[line]
	m.remove(line)
	m.insert(line, v)
	m.pinned[line] = pin
}

func (m *lruModel) insert(line addr.Line, v uint8) {
	set := m.set(line)
	*set = append(*set, line)
	m.data[line] = v
}

// victim predicts what allocating line displaces: nothing while its set
// has room (ok true, evict false), the least recent unpinned line when it
// is full, and ok false when every resident line is pinned.
func (m *lruModel) victim(line addr.Line) (v addr.Line, evict, ok bool) {
	set := *m.set(line)
	if len(set) < m.ways {
		return 0, false, true
	}
	for _, l := range set {
		if !m.pinned[l] {
			return l, true, true
		}
	}
	return 0, false, false
}

// Property: the cache agrees with an LRU reference model under a random
// stream of allocate/lookup/peek/invalidate/pin operations, on a
// power-of-two and a non-power-of-two set count and with both payloads:
// the same lines resident, the same stamps, and the same victim chosen on
// every allocation.
func TestQuickGoldenModel(t *testing.T) {
	bothPayloads(t, testGoldenModel(New), testGoldenModel(NewTags))
}

func testGoldenModel[D any](build func(int, int) *Array[D]) func(*testing.T) {
	return func(t *testing.T) {
		for _, g := range []struct{ size, assoc int }{
			{512, 2}, // 16 lines, 8 sets
			{192, 2}, // 6 lines, 3 sets: the modulo set index
		} {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				c := build(g.size, g.assoc)
				m := newLRUModel(c.Sets(), c.Ways())
				for op := 0; op < 2000; op++ {
					line := addr.Line(rng.Intn(64))
					v, inModel := m.data[line]
					switch rng.Intn(4) {
					case 0: // allocate or touch
						if e := c.Lookup(line); e != nil {
							if !inModel || stampOf(e) != int(v) {
								return false
							}
							m.touch(line)
							continue
						}
						if inModel {
							return false
						}
						want, wantEvict, ok := m.victim(line)
						if !ok {
							continue // fully pinned: the controller would stall
						}
						e, victim, ev := c.Allocate(line)
						if ev != wantEvict {
							return false
						}
						if ev {
							if victim.Line != want || stampOf(&victim) != int(m.data[want]) {
								return false
							}
							m.remove(want)
						}
						v := uint8(rng.Intn(256))
						stamp(e, v)
						m.insert(line, v)
					case 1: // observe without refreshing
						e := c.Peek(line)
						if (e != nil) != inModel {
							return false
						}
						if e != nil && stampOf(e) != int(v) {
							return false
						}
					case 2: // invalidate
						d, was := c.Invalidate(line)
						if was != inModel {
							return false
						}
						if was && stampOf(&d) != int(v) {
							return false
						}
						m.remove(line)
					case 3: // pin or unpin a resident line
						if e := c.Peek(line); e != nil {
							e.Pinned = !e.Pinned
							m.pinned[line] = e.Pinned
						}
					}
					if c.Count() != len(m.data) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatalf("%d bytes %d-way: %v", g.size, g.assoc, err)
			}
		}
	}
}

// Property: a line is always found in the set its index maps to, and
// capacity is never exceeded.
func TestQuickCapacity(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(256, 4) // 8 lines
		for _, l := range lines {
			line := addr.Line(l)
			if c.Lookup(line) == nil {
				c.Allocate(line)
			}
			if c.Count() > c.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// tagFields is a tag entry without its LRU stamp, which a LazyTags part
// and a flat array count on different ticks.
func tagFields(e Tag) Tag {
	e.lastUse = 0
	return e
}

// Property: a LazyTags and a flat Tags of the same geometry, driven by one
// random stream of allocate/lookup/peek/pin operations, agree with the LRU
// reference model and with each other: the same hits, the same victims,
// the same masks. The geometries cover a masked and a modulo set index
// over several parts, and a set count that is not a multiple of 8.
func TestQuickLazyTagsMatchFlat(t *testing.T) {
	for _, g := range []struct{ size, assoc int }{
		{4 << 10, 2}, // 64 sets: 8 parts
		{1536, 2},    // 24 sets: 3 parts, the modulo set index
		{768, 2},     // 12 sets: one part
	} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			lazy, flat := NewLazyTags(g.size, g.assoc), NewTags(g.size, g.assoc)
			m := newLRUModel(flat.Sets(), flat.Ways())
			// same reports whether both arrays hold line as the model does.
			same := func(le, fe *Tag, line addr.Line) bool {
				v, in := m.data[line]
				if (le != nil) != in || (fe != nil) != in {
					return false
				}
				return le == nil || (tagFields(*le) == tagFields(*fe) && stampOf(le) == int(v))
			}
			for op := 0; op < 2000; op++ {
				line := addr.Line(rng.Intn(256))
				switch rng.Intn(3) {
				case 0: // allocate or touch
					le, fe := lazy.Lookup(line), flat.Lookup(line)
					if !same(le, fe, line) {
						return false
					}
					if le != nil {
						m.touch(line)
						continue
					}
					want, wantEvict, ok := m.victim(line)
					if !ok {
						continue // fully pinned: the controller would stall
					}
					le, lv, lev := lazy.Allocate(line)
					fe, fv, fev := flat.Allocate(line)
					if lev != wantEvict || fev != wantEvict {
						return false
					}
					if lev {
						if tagFields(lv) != tagFields(fv) || lv.Line != want || stampOf(&lv) != int(m.data[want]) {
							return false
						}
						m.remove(want)
					}
					v := uint8(rng.Intn(256))
					stamp(le, v)
					stamp(fe, v)
					le.ValidMask, fe.ValidMask = ^v, ^v
					m.insert(line, v)
				case 1: // observe without refreshing
					if !same(lazy.Peek(line), flat.Peek(line), line) {
						return false
					}
				case 2: // pin or unpin a resident line
					if le := lazy.Peek(line); le != nil {
						le.Pinned = !le.Pinned
						flat.Peek(line).Pinned = le.Pinned
						m.pinned[line] = le.Pinned
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%d bytes %d-way: %v", g.size, g.assoc, err)
		}
	}
}

// TestLazyTagsAllocatesOnFirstUse: building an L3 bank's array allocates
// no part, a line's first Allocate allocates its part alone, and Lookup
// and Peek of a line whose part was never allocated miss without
// allocating.
func TestLazyTagsAllocatesOnFirstUse(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { sink = NewLazyTags(128<<10, 8) }); n > 2 {
		t.Errorf("building a Table-3 L3 bank's array made %.0f allocations, want at most 2", n)
	}
	l3 := NewLazyTags(128<<10, 8) // 512 sets: 64 parts of 8
	l3.Allocate(0)
	held := 0
	for _, p := range l3.parts {
		if p != nil {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("one line allocated %d parts, want 1", held)
	}
	// Line 8 maps to set 8, in the second part.
	if n := testing.AllocsPerRun(100, func() {
		if l3.Lookup(8) != nil || l3.Peek(8) != nil {
			t.Fatal("hit in a part never allocated")
		}
	}); n != 0 {
		t.Errorf("a miss in a part never allocated made %.0f allocations, want 0", n)
	}
	if l3.parts[1] != nil {
		t.Fatal("a miss allocated its part")
	}
}
