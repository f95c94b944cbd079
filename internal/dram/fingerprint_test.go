package dram

import (
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

// TestBlockXformMatchesByteLoop checks the affine identity the fast path
// rests on: folding a fully-written uniform 64-line block into the
// running FNV state via the composed transform h*mult + add[h&0xff] must
// equal 64 consecutive mixLine folds, for any incoming state. The first
// block of memory, blocks at both ends of the table, the last block below
// 4 GiB and a spread of patterns (including ones whose low bytes collide
// across lanes) are crossed with hash states covering every low-byte
// lane.
func TestBlockXformMatchesByteLoop(t *testing.T) {
	var buf [addr.WordsPerLine]uint32
	hs := []uint64{fnv64Offset, 0, 1, ^uint64(0), 0x0123456789abcdef}
	// One state per low-byte lane: the add table is indexed by h&0xff.
	for lane := 0; lane < 256; lane++ {
		hs = append(hs, 0xdeadbeef00+uint64(lane))
	}
	tbl0 := int(addr.TableBase / blockBytes)
	for _, bi := range []int{0, 7, tbl0, tbl0 + 255, tbl0 + tableBlocks - 1, 1<<32/blockBytes - 1} {
		for _, pattern := range []uint32{0, ^uint32(0), 0xdeadbeef, 0x01010101} {
			x := blockXformFor(bi, pattern)
			for i := range buf {
				buf[i] = pattern
			}
			for _, h0 := range hs {
				want := h0
				for j := 0; j < blockLines; j++ {
					want = mixLine(want, addr.Line(bi*blockLines+j), &buf)
				}
				got := h0*x.mult + x.add[h0&0xff]
				if got != want {
					t.Fatalf("block %d pattern %#x h0 %#x: xform %#x, byte loop %#x",
						bi, pattern, h0, got, want)
				}
			}
		}
	}
}

// TestFingerprintFastPathMatchesLineWalk builds a store holding every
// block shape Fingerprint discriminates, plus lines outside the table,
// and demands Fingerprint agree bit for bit with the line-by-line
// reference after each step. Each step also checks which path its block
// took, by whether Fingerprint built its transform, so no shape
// degenerates into another unnoticed.
func TestFingerprintFastPathMatchesLineWalk(t *testing.T) {
	s := NewStore()
	check := func(stage string, bi int, fast bool) {
		t.Helper()
		k := blockKey{int(blockAt(bi) / blockBytes), s.readBlock(blockAt(bi)).pattern}
		xformMu.Lock()
		delete(xformCache, k)
		xformMu.Unlock()
		if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
			t.Fatalf("%s: fast-path fingerprint %#x, reference %#x", stage, got, want)
		}
		xformMu.Lock()
		built := xformCache[k] != nil
		xformMu.Unlock()
		if built != fast {
			t.Fatalf("%s: block %d takes the fast path = %v, want %v", stage, bi, built, fast)
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
	check("painted all-zero block", 3, false)

	fillBlock(s, 4, ^uint32(0))
	check("uniform block written word by word", 4, false)

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

	paint(3, 1, 0x5555aaaa)
	check("block repainted with a new pattern", 3, true)
	paint(5, 1, 0x5555aaaa)
	check("copied-out block repainted", 5, true)
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
