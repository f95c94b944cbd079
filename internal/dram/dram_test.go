package dram

import (
	"testing"
	"testing/quick"

	"cohesion/internal/addr"
	"cohesion/internal/event"
	"cohesion/internal/stats"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	if s.ReadWord(0x100) != 0 {
		t.Fatal("untouched memory not zero")
	}
	s.WriteWord(0x100, 42)
	s.WriteWord(0x104, 7)
	if s.ReadWord(0x100) != 42 || s.ReadWord(0x104) != 7 {
		t.Fatal("readback wrong")
	}
	// Unaligned address reads the containing word.
	if s.ReadWord(0x102) != 42 {
		t.Fatal("word containment wrong")
	}
	if s.LinesTouched() != 1 {
		t.Fatalf("LinesTouched = %d", s.LinesTouched())
	}
}

func TestReadLineAndMerge(t *testing.T) {
	s := NewStore()
	line := addr.LineOf(0x200)
	s.WriteWord(0x200, 1)
	s.WriteWord(0x21c, 8)
	l := s.ReadLine(line)
	if l[0] != 1 || l[7] != 8 {
		t.Fatalf("ReadLine = %v", l)
	}
	// Merge words 1 and 2 only; words 0 and 7 must survive.
	var data [addr.WordsPerLine]uint32
	data[1], data[2] = 100, 200
	data[0] = 999 // masked out; must not land
	s.MergeLine(line, 0b0000_0110, data)
	got := s.ReadLine(line)
	if got[0] != 1 || got[1] != 100 || got[2] != 200 || got[7] != 8 {
		t.Fatalf("after merge: %v", got)
	}
	// Empty mask is a no-op even on unseen lines.
	s.MergeLine(addr.Line(0xdead), 0, data)
	if s.ReadLine(addr.Line(0xdead)) != ([addr.WordsPerLine]uint32{}) {
		t.Fatal("empty-mask merge modified memory")
	}
}

// TestTableBlocksReadBack checks the table segment's block shapes
// through the word and line accessors: a painted block reads its pattern
// everywhere, a differing write changes only its own word, and untouched
// table memory reads zero without joining the image.
func TestTableBlocksReadBack(t *testing.T) {
	s := NewStore()
	if s.ReadWord(addr.TableBase) != 0 || s.LinesTouched() != 0 {
		t.Fatal("untouched table not zero")
	}
	s.FillTable(addr.Range{Base: addr.TableBase + 2*blockBytes, Size: 2 * blockBytes}, 0xa5a5a5a5)
	if got := s.LinesTouched(); got != 2*blockLines {
		t.Fatalf("LinesTouched after painting two blocks = %d, want %d", got, 2*blockLines)
	}
	changed := addr.TableBase + 3*blockBytes + 100
	s.WriteWord(changed, 7)
	for a := addr.TableBase + blockBytes; a < addr.TableBase+5*blockBytes; a += addr.WordBytes {
		want := uint32(0xa5a5a5a5)
		switch {
		case a == changed:
			want = 7
		case a < addr.TableBase+2*blockBytes || a >= addr.TableBase+4*blockBytes:
			want = 0
		}
		if got := s.ReadWord(a); got != want {
			t.Fatalf("word %#x = %#x, want %#x", uint64(a), got, want)
		}
		if got := s.ReadLine(addr.LineOf(a))[addr.WordIndex(a)]; got != want {
			t.Fatalf("line word %#x = %#x, want %#x", uint64(a), got, want)
		}
	}
	// A merge into an untouched block writes only its masked words.
	line := addr.LineOf(addr.TableBase + 6*blockBytes)
	s.MergeLine(line, 0b10, [addr.WordsPerLine]uint32{1, 2, 3})
	if got := s.ReadLine(line); got != ([addr.WordsPerLine]uint32{0, 2}) {
		t.Fatalf("merged table line = %v", got)
	}
	if got := s.LinesTouched(); got != 2*blockLines+1 {
		t.Fatalf("LinesTouched = %d, want %d", got, 2*blockLines+1)
	}
}

func TestFillTableRejectsPartialBlocks(t *testing.T) {
	for _, r := range []addr.Range{
		{Base: addr.TableBase + 4, Size: blockBytes},
		{Base: addr.TableBase, Size: blockBytes / 2},
		{Base: addr.TableBase - blockBytes, Size: blockBytes},
		{Base: addr.TableBase + addr.TableBytes - blockBytes, Size: 2 * blockBytes},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillTable(%v) accepted a range that is not whole table blocks", r)
				}
			}()
			NewStore().FillTable(r, 1)
		}()
	}
}

// Property: disjoint merges from two writers commute (the paper's multiple-
// writer merge guarantee for disjoint write sets).
func TestQuickDisjointMergesCommute(t *testing.T) {
	f := func(maskA, maskB uint8, a, b [addr.WordsPerLine]uint32) bool {
		maskB &^= maskA // force disjoint
		line := addr.Line(5)

		s1 := NewStore()
		s1.MergeLine(line, maskA, a)
		s1.MergeLine(line, maskB, b)

		s2 := NewStore()
		s2.MergeLine(line, maskB, b)
		s2.MergeLine(line, maskA, a)

		return s1.ReadLine(line) == s2.ReadLine(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControllerLatencyAndBandwidth(t *testing.T) {
	var q event.Queue
	var run stats.Run
	c := NewController(&q, &run, 2, 8, 100, 4)

	if c.ChannelForBank(0) != 0 || c.ChannelForBank(3) != 0 || c.ChannelForBank(4) != 1 {
		t.Fatal("bank->channel mapping wrong")
	}

	var done []event.Cycle
	// Three back-to-back accesses to the SAME line on channel 0: the first
	// is a row miss (100 cycles); the rest hit the open row (50 cycles)
	// after winning the channel at 4-cycle occupancy spacing.
	line := addr.Line(0)
	for i := 0; i < 3; i++ {
		c.Access(0, line, false, func() { done = append(done, q.Now()) })
	}
	// One access on channel 1: independent (its own row miss).
	c.Access(4, line, true, func() { done = append(done, q.Now()) })
	q.Run(0)

	// Channel 0: starts at 0,4,8 -> completions 100, 54, 58. Channel 1:
	// start 0 -> 100. Events fire in time order: 54, 58, 100, 100.
	want := []event.Cycle{54, 58, 100, 100}
	if len(done) != 4 {
		t.Fatalf("completions = %v", done)
	}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completion %d at %d, want %d (all: %v)", i, done[i], w, done)
		}
	}
	if run.DRAMReads != 3 || run.DRAMWrites != 1 {
		t.Fatalf("stats reads=%d writes=%d", run.DRAMReads, run.DRAMWrites)
	}
	if c.RowHits != 2 || c.RowMisses != 2 {
		t.Fatalf("row hits/misses = %d/%d, want 2/2", c.RowHits, c.RowMisses)
	}
}

func TestRowBufferLocality(t *testing.T) {
	var q event.Queue
	c := NewController(&q, nil, 1, 4, 100, 4)
	sameRow := []addr.Line{0, 1, 2, 3}                       // within one 2 KB row
	otherRow := addr.Line(BanksPerChannel * (1 << (11 - 5))) // same bank, different row
	for _, l := range sameRow {
		c.Access(0, l, false, func() {})
	}
	q.Run(0)
	if c.RowMisses != 1 || c.RowHits != 3 {
		t.Fatalf("same-row: hits/misses = %d/%d, want 3/1", c.RowHits, c.RowMisses)
	}
	c.Access(0, otherRow, false, func() {})
	c.Access(0, sameRow[0], false, func() {})
	q.Run(0)
	// Both are row misses: the second because otherRow closed row 0 in the
	// same bank.
	if c.RowMisses != 3 {
		t.Fatalf("bank conflict not modelled: misses = %d, want 3", c.RowMisses)
	}
}

func TestDifferentBanksKeepRowsOpen(t *testing.T) {
	var q event.Queue
	c := NewController(&q, nil, 1, 4, 100, 4)
	bank0 := addr.Line(0)
	bank1 := addr.Line(1 << (11 - 5)) // next 2 KB row -> next DRAM bank
	c.Access(0, bank0, false, func() {})
	c.Access(0, bank1, false, func() {})
	c.Access(0, bank0, false, func() {}) // bank 0's row still open
	c.Access(0, bank1, false, func() {})
	q.Run(0)
	if c.RowHits != 2 || c.RowMisses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/2", c.RowHits, c.RowMisses)
	}
}

func TestQueueDelay(t *testing.T) {
	var q event.Queue
	c := NewController(&q, nil, 1, 4, 100, 4)
	if c.QueueDelay(0) != 0 {
		t.Fatal("idle channel has delay")
	}
	c.Access(0, 0, false, func() {})
	c.Access(0, 0, false, func() {})
	if c.QueueDelay(0) != 8 {
		t.Fatalf("QueueDelay = %d, want 8", c.QueueDelay(0))
	}
	q.Run(0)
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry accepted")
		}
	}()
	var q event.Queue
	NewController(&q, nil, 3, 8, 100, 4)
}
