package directory

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"cohesion/internal/addr"
)

func TestSharersBasics(t *testing.T) {
	var s Sharers
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	if !s.Add(0) || !s.Add(127) || !s.Add(63) || !s.Add(64) {
		t.Fatal("Add of new members returned false")
	}
	if s.Add(63) {
		t.Fatal("Add of member returned true")
	}
	if s.Count() != 4 || !s.Has(127) || s.Has(1) {
		t.Fatalf("set state wrong: count=%d", s.Count())
	}
	var got []int
	s.ForEach(func(c int) { got = append(got, c) })
	want := []int{0, 63, 64, 127}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v", got)
		}
	}
	if !s.Remove(0) || s.Remove(0) {
		t.Fatal("Remove semantics wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("count after remove = %d", s.Count())
	}
}

func TestQuickSharersMatchesMap(t *testing.T) {
	f := func(ops []uint8) bool {
		var s Sharers
		model := map[int]bool{}
		for _, op := range ops {
			c := int(op % MaxClusters)
			if op&0x80 != 0 {
				if s.Remove(c) != model[c] {
					return false
				}
				delete(model, c)
			} else {
				if s.Add(c) == model[c] {
					return false
				}
				model[c] = true
			}
		}
		return s.Count() == len(model)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testStorageCommon(t *testing.T, d Directory) {
	t.Helper()
	if d.Count() != 0 || d.Lookup(1) != nil {
		t.Fatal("fresh directory not empty")
	}
	e := d.Allocate(1)
	if e.Line != 1 || e.State != Shared || !e.Sharers.Empty() {
		t.Fatal("fresh entry not default")
	}
	e.Sharers.Add(3)
	e.State = Modified
	e.Owner = 3
	got := d.Lookup(1)
	if got == nil || got.State != Modified || got.Owner != 3 {
		t.Fatal("Lookup lost state")
	}
	if d.Count() != 1 {
		t.Fatalf("Count = %d", d.Count())
	}
	d.Remove(1)
	if d.Count() != 0 || d.Lookup(1) != nil {
		t.Fatal("Remove failed")
	}
	d.Remove(1) // removing absent line is a no-op
}

func TestInfiniteStorage(t *testing.T) { testStorageCommon(t, NewInfinite()) }
func TestSparseStorage(t *testing.T)   { testStorageCommon(t, NewSparse(64, 4, false)) }
func TestLimitedStorage(t *testing.T)  { testStorageCommon(t, NewSparse(64, 4, true)) }

// sink keeps the directories the construction tests build on the heap.
var sink Directory

// TestNewSparseAllocatesPerBankNotPerSet locks in that a sparse directory
// is built from one chunk index and one occupancy bitmap: building one
// costs the same few allocations for every geometry.
func TestNewSparseAllocatesPerBankNotPerSet(t *testing.T) {
	for _, g := range []struct {
		name           string
		entries, assoc int
	}{
		{"Table 3", 16 << 10, 128},
		{"stress", 256, 8},
		{"fully associative", 2048, 0},
	} {
		if n := testing.AllocsPerRun(10, func() { sink = NewSparse(g.entries, g.assoc, false) }); n > 4 {
			t.Errorf("%s: NewSparse(%d, %d) made %.0f allocations, want at most 4", g.name, g.entries, g.assoc, n)
		}
	}
}

// TestEntryFits48Bytes locks in the field order that packs an Entry into
// 48 bytes, and so a 16-entry chunk into 768.
func TestEntryFits48Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 48 {
		t.Fatalf("Entry is %d bytes, want at most 48", n)
	}
}

// TestNewSparseHoldsNoEntries: a Table 3 bank's directory is built
// without any of its 16K entries (786,432 bytes); only the chunk index
// and the occupancy bitmap are allocated up front.
func TestNewSparseHoldsNoEntries(t *testing.T) {
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = NewSparse(16<<10, 128, false)
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewSparse(16K, 128) allocated %d bytes", b)
	if b >= 64<<10 {
		t.Fatalf("NewSparse(16K, 128) allocated %d bytes, want under 64 KiB", b)
	}
}

// chunksHeld counts the allocated chunks of a sparse directory.
func chunksHeld(d Directory) int {
	n := 0
	for _, c := range d.(*sparse).chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestSparseChunksAllocatedOnFirstUse: Lookup, HasRoom and Victim in a set
// no entry ever used allocate nothing and leave its chunks unallocated;
// each Allocate into a fresh chunk allocates that chunk alone, and a chunk
// outlives its entries so entry pointers stay stable.
func TestSparseChunksAllocatedOnFirstUse(t *testing.T) {
	const ways, sets = 128, 128
	d := NewSparse(ways*sets, ways, false)
	line := addr.Line(5) // set 5: slots 640-767, chunks 40-47
	if n := testing.AllocsPerRun(10, func() {
		if d.Lookup(line) != nil || !d.HasRoom(line) || d.Victim(line) != nil {
			t.Fatal("a never-used set is not empty")
		}
	}); n != 0 {
		t.Fatalf("probing a never-used set made %.0f allocations, want 0", n)
	}
	if n := chunksHeld(d); n != 0 {
		t.Fatalf("probing a never-used set allocated %d chunks", n)
	}
	first := d.Allocate(line)
	if n := chunksHeld(d); n != 1 {
		t.Fatalf("first Allocate left %d chunks, want 1", n)
	}
	for w := 1; w < ways; w++ {
		d.Allocate(line + addr.Line(w*sets))
	}
	if n := chunksHeld(d); n != ways/chunkSize {
		t.Fatalf("a full set holds %d chunks, want %d", n, ways/chunkSize)
	}
	if d.Lookup(line) != first {
		t.Fatal("filling the set moved its first entry")
	}
	if v := d.Victim(line + ways*sets); v == nil || v.Line != line+sets {
		t.Fatalf("victim of the full set = %v, want line %d", v, line+sets)
	}
	for w := 0; w < ways; w++ {
		d.Remove(line + addr.Line(w*sets))
	}
	if d.Count() != 0 || chunksHeld(d) != ways/chunkSize {
		t.Fatalf("after removing every entry: count %d, %d chunks held, want 0 and %d", d.Count(), chunksHeld(d), ways/chunkSize)
	}
}

func TestInfiniteNeverEvicts(t *testing.T) {
	d := NewInfinite()
	for i := addr.Line(0); i < 10000; i++ {
		if !d.HasRoom(i) || d.Victim(i) != nil {
			t.Fatal("infinite directory reported pressure")
		}
		d.Allocate(i)
	}
	if d.Count() != 10000 {
		t.Fatalf("Count = %d", d.Count())
	}
}

func TestSparseVictimSelection(t *testing.T) {
	d := NewSparse(4, 2, false) // 2 sets x 2 ways
	d.Allocate(0)               // set 0
	d.Allocate(2)               // set 0
	if d.HasRoom(4) {
		t.Fatal("full set reported room")
	}
	d.Lookup(0) // make 0 MRU
	v := d.Victim(4)
	if v == nil || v.Line != 2 {
		t.Fatalf("victim = %v, want line 2", v)
	}
	// Pinned entries are not evictable.
	v.Pinned = true
	d.Lookup(2) // bump so 0 would be LRU... but pin was on 2
	v2 := d.Victim(4)
	if v2 == nil || v2.Line != 0 {
		t.Fatalf("victim with pin = %v, want line 0", v2)
	}
	e0 := d.Lookup(0)
	e0.Pinned = true
	if d.Victim(4) != nil {
		t.Fatal("fully pinned set returned a victim")
	}
	if d.HasRoom(4) {
		t.Fatal("fully pinned set reported room")
	}
	// Other set unaffected.
	if !d.HasRoom(1) {
		t.Fatal("set 1 should have room")
	}
}

func TestSparseAllocatePanicsWithoutRoom(t *testing.T) {
	d := NewSparse(2, 2, false)
	d.Allocate(0)
	d.Allocate(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Allocate without room succeeded")
		}
	}()
	d.Allocate(4)
}

func TestAllocateResidentPanics(t *testing.T) {
	for _, d := range []Directory{NewInfinite(), NewSparse(8, 2, false)} {
		d.Allocate(5)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("double Allocate succeeded")
				}
			}()
			d.Allocate(5)
		}()
	}
}

func TestCountByClass(t *testing.T) {
	d := NewSparse(64, 4, false)
	d.Allocate(addr.LineOf(addr.CodeBase))
	d.Allocate(addr.LineOf(addr.HeapBase))
	d.Allocate(addr.LineOf(addr.HeapBase + 32))
	d.Allocate(addr.LineOf(addr.StackBase))
	by := d.CountByClass()
	if by[addr.ClassCode] != 1 || by[addr.ClassHeapGlobal] != 2 || by[addr.ClassStack] != 1 {
		t.Fatalf("CountByClass = %v", by)
	}
	d.Remove(addr.LineOf(addr.HeapBase))
	if d.CountByClass()[addr.ClassHeapGlobal] != 1 {
		t.Fatal("CountByClass after Remove wrong")
	}

	di := NewInfinite()
	di.Allocate(addr.LineOf(addr.StackBase))
	if di.CountByClass()[addr.ClassStack] != 1 {
		t.Fatal("infinite CountByClass wrong")
	}
}

func TestAddSharerLimitedOverflow(t *testing.T) {
	d := NewSparse(8, 2, true)
	e := d.Allocate(0)
	for c := 0; c < LimitedPointers; c++ {
		AddSharer(d, e, c)
	}
	if e.Broadcast {
		t.Fatal("broadcast set before overflow")
	}
	AddSharer(d, e, 10) // fifth sharer
	if !e.Broadcast {
		t.Fatal("broadcast not set on overflow")
	}
	// Re-adding an existing sharer never overflows.
	full := NewSparse(8, 2, true)
	e2 := full.Allocate(0)
	for c := 0; c < LimitedPointers; c++ {
		AddSharer(full, e2, c)
	}
	AddSharer(full, e2, 2)
	if e2.Broadcast {
		t.Fatal("re-add set broadcast")
	}
	// Full-map never broadcasts.
	fm := NewSparse(8, 2, false)
	e3 := fm.Allocate(0)
	for c := 0; c < 20; c++ {
		AddSharer(fm, e3, c)
	}
	if e3.Broadcast {
		t.Fatal("full-map set broadcast")
	}
}

// lruModel is the reference for a sparse directory's contents and
// replacement: per set, its resident lines from least to most recently
// used, and which of them are pinned.
type lruModel struct {
	sets   [][]addr.Line
	pinned map[addr.Line]bool
	ways   int
	count  int
}

func (m *lruModel) set(line addr.Line) *[]addr.Line { return &m.sets[int(line)%len(m.sets)] }

func (m *lruModel) has(line addr.Line) bool { return slices.Contains(*m.set(line), line) }

// drop removes line, reporting whether it was resident.
func (m *lruModel) drop(line addr.Line) bool {
	set := m.set(line)
	for i, l := range *set {
		if l == line {
			*set = append((*set)[:i], (*set)[i+1:]...)
			delete(m.pinned, line)
			m.count--
			return true
		}
	}
	return false
}

// touch makes line the most recent of its set, inserting it if absent.
func (m *lruModel) touch(line addr.Line) {
	pin := m.pinned[line]
	m.drop(line)
	set := m.set(line)
	*set = append(*set, line)
	m.pinned[line] = pin
	m.count++
}

// victim predicts Victim(line): nothing while the set has room (full
// false), the least recent unpinned line when it is full, and nothing
// (ok false) when every line in it is pinned.
func (m *lruModel) victim(line addr.Line) (v addr.Line, full, ok bool) {
	set := *m.set(line)
	if len(set) < m.ways {
		return 0, false, false
	}
	for _, l := range set {
		if !m.pinned[l] {
			return l, true, true
		}
	}
	return 0, true, false
}

// Property: sparse storage agrees with an LRU reference model when the
// controller respects Victim discipline, on power-of-two and
// non-power-of-two set counts and on sets that span several chunks or
// exactly one: Lookup and Allocate make a line most recent, Victim is nil
// while the set has room and otherwise names the least recent unpinned
// line, and HasRoom and Count agree throughout.
func TestQuickSparseModel(t *testing.T) {
	for _, g := range []struct{ entries, assoc, lines, ops int }{
		{16, 4, 64, 1000},   // 4 sets
		{12, 4, 64, 1000},   // 3 sets: the modulo set index
		{64, 16, 256, 1000}, // 4 sets of one chunk each
		// 2 sets of 8 chunks each: a quarter of the ops allocate, so
		// filling 256 entries takes a few thousand.
		{256, 128, 768, 4000},
	} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			d := NewSparse(g.entries, g.assoc, false)
			m := &lruModel{sets: make([][]addr.Line, g.entries/g.assoc), pinned: map[addr.Line]bool{}, ways: g.assoc}
			for i := 0; i < g.ops; i++ {
				line := addr.Line(rng.Intn(g.lines))
				switch rng.Intn(4) {
				case 0: // allocate on a miss, evicting the predicted victim
					hit := d.Lookup(line) != nil
					if hit != m.has(line) {
						return false
					}
					if hit {
						m.touch(line)
						continue
					}
					want, full, ok := m.victim(line)
					v := d.Victim(line)
					if d.HasRoom(line) == full || (v != nil) != ok || ok && v.Line != want {
						return false
					}
					if full && !ok {
						continue // every way pinned: the controller retries
					}
					if ok {
						d.Remove(want)
						m.drop(want)
					}
					d.Allocate(line)
					m.touch(line)
				case 1: // lookup
					e := d.Lookup(line)
					if (e != nil) != m.has(line) {
						return false
					}
					if e != nil {
						m.touch(line)
					}
				case 2: // pin or unpin a resident line
					if e := d.Lookup(line); e != nil {
						m.touch(line)
						e.Pinned = !e.Pinned
						m.pinned[line] = e.Pinned
					}
				case 3:
					d.Remove(line)
					m.drop(line)
				}
				if d.Count() != m.count || m.count > g.entries {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("NewSparse(%d, %d): %v", g.entries, g.assoc, err)
		}
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	in := PaperAreaInputs()

	fm := AreaFullMapSparse(in)
	// Paper: 9.28 MB, 113% of L2. Our accounting (146 bits x 512K entries)
	// gives 9.125 MiB / 114%; accept a small tolerance for the paper's
	// rounding.
	if fm.BitsPerEntry != 146 {
		t.Fatalf("full-map bits/entry = %d, want 146", fm.BitsPerEntry)
	}
	mb := float64(fm.Bytes) / (1 << 20)
	if mb < 8.8 || mb > 9.6 {
		t.Fatalf("full-map = %.2f MB, paper says 9.28", mb)
	}
	if fm.PercentOfL2 < 108 || fm.PercentOfL2 > 120 {
		t.Fatalf("full-map %% of L2 = %.1f, paper says 113", fm.PercentOfL2)
	}

	d4 := AreaDir4B(in)
	if d4.BitsPerEntry != 46 {
		t.Fatalf("Dir4B bits/entry = %d, want 46", d4.BitsPerEntry)
	}
	mb = float64(d4.Bytes) / (1 << 20)
	if mb < 2.7 || mb > 3.0 {
		t.Fatalf("Dir4B = %.2f MB, paper says 2.88", mb)
	}
	if d4.PercentOfL2 < 33 || d4.PercentOfL2 > 37 {
		t.Fatalf("Dir4B %% of L2 = %.1f, paper says 35.1", d4.PercentOfL2)
	}

	dt := AreaDuplicateTags(in, 1)
	kb := float64(dt.Bytes) / 1024
	if kb != 736 {
		t.Fatalf("duplicate tags = %.1f KB, paper says 736", kb)
	}
	if p := dt.PercentOfL2; p < 8.5 || p > 9.5 {
		t.Fatalf("duplicate tags %% of L2 = %.2f, paper says 8.98", p)
	}
	dt8 := AreaDuplicateTags(in, 8)
	if dt8.Bytes != 8*dt.Bytes {
		t.Fatal("replicas do not scale linearly")
	}

	if len(AreaTable(in)) != 4 {
		t.Fatal("AreaTable size wrong")
	}
	if fm.String() == "" || dt.String() == "" {
		t.Fatal("empty String()")
	}
}

func BenchmarkSparseLookup(b *testing.B) {
	d := NewSparse(16<<10, 128, false)
	for i := 0; i < 16<<10; i++ {
		d.Allocate(addr.Line(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Lookup(addr.Line(i&(16<<10-1))) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkInfiniteLookup(b *testing.B) {
	d := NewInfinite()
	for i := 0; i < 16<<10; i++ {
		d.Allocate(addr.Line(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Lookup(addr.Line(i&(16<<10-1))) == nil {
			b.Fatal("miss")
		}
	}
}

func BenchmarkSharersForEach(b *testing.B) {
	var s Sharers
	for c := 0; c < MaxClusters; c += 3 {
		s.Add(c)
	}
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.ForEach(func(int) { n++ })
	}
	_ = n
}
