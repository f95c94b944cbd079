package dram

import (
	"runtime"
	"slices"
	"testing"

	"cohesion/internal/addr"
)

// slowFingerprint is the reference digest: every written line, from the
// Store's public image accessors, through the byte-defined mixLine fold.
// The fast path's contract is bit-identity with this.
func slowFingerprint(s *Store) uint64 {
	h := uint64(fnv64Offset)
	for _, line := range s.Lines() {
		words := s.ReadLine(line)
		h = mixLine(h, line, &words)
	}
	return h
}

// tableBlocks is the number of blocks in the region table segment.
const tableBlocks = addr.TableBytes / blockBytes

// blockAt returns the address of the first word of table block bi.
func blockAt(bi int) addr.Addr { return addr.TableBase + addr.Addr(bi*blockBytes) }

// fillBlock writes every word of table block bi with pattern through the
// public word-write path.
func fillBlock(s *Store, bi int, pattern uint32) {
	for w := 0; w < blockWords; w++ {
		s.WriteWord(blockAt(bi)+addr.Addr(w*addr.WordBytes), pattern)
	}
}

// byteLoopWords is the byte definition of folding a line's eight words
// into h: each word widened to eight bytes, little-endian, one FNV-1a
// step per byte.
func byteLoopWords(h uint64, words *[addr.WordsPerLine]uint32) uint64 {
	for _, w := range words {
		v := uint64(w)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnv64Prime
			v >>= 8
		}
	}
	return h
}

// TestPatternLaneMatchesByteLoop checks the identity the uniform-block
// fold rests on. One lane step, h*p^64 + add[h&0xff], must equal the
// byte loop over eight words of the pattern for a hash state in every
// low-byte lane, and a store holding one painted block must fingerprint
// equal to the line-by-line reference, wherever the block sits: the
// first blocks of memory, both ends of the table and the last block
// below 4 GiB. The patterns include ones whose bytes repeat across lanes
// and one with a single high bit.
func TestPatternLaneMatchesByteLoop(t *testing.T) {
	hs := []uint64{fnv64Offset, 0, ^uint64(0)}
	for lo := uint64(0); lo < 256; lo++ {
		hs = append(hs, 0x9e3779b97f4a7c00^lo*0x0101010101010101)
	}
	tbl0 := int(addr.TableBase / blockBytes)
	for _, pattern := range []uint32{0, ^uint32(0), 0xdeadbeef, 0x01010101, 0x80000000} {
		var lane patternLane
		lane.build(pattern)
		words := [addr.WordsPerLine]uint32{pattern, pattern, pattern, pattern, pattern, pattern, pattern, pattern}
		for _, h0 := range hs {
			if got, want := h0*fnv64Prime64+lane.add[h0&0xff], byteLoopWords(h0, &words); got != want {
				t.Fatalf("pattern %#x h0 %#x: lane step %#x, byte loop %#x", pattern, h0, got, want)
			}
		}
		for _, bi := range []int{0, 7, tbl0, tbl0 + tableBlocks - 1, 1<<32/blockBytes - 1} {
			s := NewStore()
			s.FillTable(addr.Range{Base: addr.Addr(bi * blockBytes), Size: blockBytes}, pattern)
			if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
				t.Fatalf("pattern %#x block %d: fingerprint %#x, reference %#x", pattern, bi, got, want)
			}
		}
	}
}

// TestFingerprintFastPathMatchesLineWalk builds a store holding every
// block shape Fingerprint discriminates, plus lines outside the table,
// and demands Fingerprint agree bit for bit with the line-by-line
// reference after each step. Each step also checks which path its block
// takes (block.uniform, the predicate Fingerprint branches on), so no
// shape degenerates into another unnoticed.
func TestFingerprintFastPathMatchesLineWalk(t *testing.T) {
	s := NewStore()
	check := func(stage string, bi int, uniform bool) {
		t.Helper()
		if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
			t.Fatalf("%s: fast-path fingerprint %#x, reference %#x", stage, got, want)
		}
		if b := s.readBlock(blockAt(bi)); b.uniform() != uniform {
			t.Fatalf("%s: block %d takes the lane path = %v, want %v", stage, bi, b.uniform(), uniform)
		}
	}
	paint := func(bi, n int, pattern uint32) {
		s.FillTable(addr.Range{Base: blockAt(bi), Size: uint64(n * blockBytes)}, pattern)
	}

	// Lines outside the table, on both sides of the heap.
	s.WriteWord(0x100, 42)
	s.WriteWord(0x8000_0000, 7)
	if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
		t.Fatalf("heap lines only: fast-path fingerprint %#x, reference %#x", got, want)
	}

	paint(0, 2, ^uint32(0))
	check("painted blocks", 1, true)
	paint(tableBlocks-1, 1, ^uint32(0))
	check("painted last block", tableBlocks-1, true)
	paint(3, 1, 0)
	check("painted all-zero block", 3, true)

	fillBlock(s, 4, ^uint32(0))
	check("uniform block written word by word", 4, false)
	fillBlock(s, 6, 0)
	check("all-zero block written word by word", 6, true)

	paint(5, 1, ^uint32(0))
	s.WriteWord(blockAt(5)+64, 0x1234)
	check("painted block with one word changed", 5, false)

	// Ragged: only the first 3 lines of block 7 written.
	for w := 0; w < 3*addr.WordsPerLine; w++ {
		s.WriteWord(blockAt(7)+addr.Addr(w*addr.WordBytes), 9)
	}
	check("ragged block", 7, false)

	s.WriteWord(blockAt(5)+64, ^uint32(0))
	check("copied-out block written back to its pattern", 5, false)

	// A third pattern, between blocks of the other two: more lanes than
	// Fingerprint's frame holds.
	paint(3, 1, 0x5555aaaa)
	check("block repainted with a new pattern", 3, true)
	paint(5, 1, 0x5555aaaa)
	check("copied-out block repainted", 5, true)
}

// presetBase is where the Cohesion preset's table lines start: painting
// the 256 MiB incoherent heap writes the 512 blocks from here, at every
// bank count.
const presetBase = addr.TableBase + 0x40_0000

// presetStore returns an image holding the Cohesion preset's 512 table
// blocks painted with pattern.
func presetStore(pattern uint32) *Store {
	s := NewStore()
	s.FillTable(addr.Range{Base: presetBase, Size: 512 * blockBytes}, pattern)
	return s
}

var sink uint64 // keeps measured fingerprints alive

// TestFingerprintRetainsNothing fingerprints a painted 512-block table
// and drops the store: the live heap must come back to where it was,
// because the lane table lives in Fingerprint's frame. A fingerprint of
// a painted image allocates nothing.
func TestFingerprintRetainsNothing(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	func() {
		s := presetStore(0x7e57_1a9e) // a pattern no other test paints
		sink = s.Fingerprint()
	}()
	if grew := int64(live()) - int64(before); grew >= 64<<10 {
		t.Errorf("live heap grew %d bytes across a dropped store's fingerprint, want under 64 KiB", grew)
	}
	s := presetStore(^uint32(0))
	if n := testing.AllocsPerRun(10, func() { sink = s.Fingerprint() }); n != 0 {
		t.Errorf("Fingerprint of a painted image allocates %v times, want 0", n)
	}
}

// BenchmarkFingerprint sizes a fingerprint of the Cohesion preset image:
// painted is its 512 table blocks alone, preset adds 6,000 heap lines
// that a run has written, each mixed line by line.
func BenchmarkFingerprint(b *testing.B) {
	preset := presetStore(^uint32(0))
	for i := 0; i < 6000; i++ {
		preset.WriteWord(addr.HeapBase+addr.Addr(i*addr.LineBytes), uint32(i)+1)
	}
	for _, c := range []struct {
		name string
		s    *Store
	}{{"painted", presetStore(^uint32(0))}, {"preset", preset}} {
		lines := len(c.s.Lines())
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = c.s.Fingerprint()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}

// TestAbsentChunksReadZeroAndStayOut writes a heap line and blocks in two
// table chunks with an unwritten chunk between them. The walks
// (Fingerprint, Lines) must skip the absent chunk and the absent regions
// and agree with the line-by-line reference, and reads inside an absent
// chunk or region must return zero without allocating it.
func TestAbsentChunksReadZeroAndStayOut(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x100, 42)
	lo, hi := 5, 2*chunkBlocks+3 // blocks in chunks 0 and 2 of the table
	s.FillTable(addr.Range{Base: blockAt(lo), Size: blockBytes}, ^uint32(0))
	s.WriteWord(blockAt(hi)+addr.LineBytes, 9) // block hi, line 1

	if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
		t.Fatalf("fingerprint %#x, reference %#x", got, want)
	}
	want := []addr.Line{addr.LineOf(0x100)}
	for j := 0; j < blockLines; j++ {
		want = append(want, addr.LineOf(blockAt(lo))+addr.Line(j))
	}
	want = append(want, addr.LineOf(blockAt(hi))+1)
	if got := s.Lines(); !slices.Equal(got, want) {
		t.Fatalf("Lines = %v, want %v", got, want)
	}

	absentChunk := blockAt(chunkBlocks + 7) // a block of table chunk 1
	absentRegion := addr.HeapBase + 0x40
	for _, a := range []addr.Addr{absentChunk, absentRegion} {
		if s.ReadWord(a+4) != 0 || s.ReadLine(addr.LineOf(a)) != ([addr.WordsPerLine]uint32{}) {
			t.Fatalf("absent memory at %#x reads nonzero", uint64(a))
		}
	}
	tbl := s.regions[addr.TableBase>>regionShift]
	if tbl[0] == nil || tbl[1] != nil || tbl[2] == nil {
		t.Fatalf("table chunks allocated = %v %v %v, want true false true", tbl[0] != nil, tbl[1] != nil, tbl[2] != nil)
	}
	if s.regions[absentRegion>>regionShift] != nil {
		t.Fatal("a read allocated the heap's region")
	}
}
