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
// equal 64 consecutive mixLine folds, for any incoming state. Block
// indices at both ends of the table and a spread of patterns (including
// ones whose low bytes collide across lanes) are crossed with hash
// states covering every low-byte lane.
func TestBlockXformMatchesByteLoop(t *testing.T) {
	var buf [addr.WordsPerLine]uint32
	hs := []uint64{fnv64Offset, 0, 1, ^uint64(0), 0x0123456789abcdef}
	// One state per low-byte lane: the add table is indexed by h&0xff.
	for lane := 0; lane < 256; lane++ {
		hs = append(hs, 0xdeadbeef00+uint64(lane))
	}
	for _, wi := range []int{0, 7, 255, tblLines/blockLines - 1} {
		for _, pattern := range []uint32{0, ^uint32(0), 0xdeadbeef, 0x01010101} {
			x := blockXformFor(wi, pattern)
			for i := range buf {
				buf[i] = pattern
			}
			for _, h0 := range hs {
				want := h0
				for j := 0; j < blockLines; j++ {
					want = mixLine(want, tblLine0+addr.Line(wi*blockLines+j), &buf)
				}
				got := h0*x.mult + x.add[h0&0xff]
				if got != want {
					t.Fatalf("block %d pattern %#x h0 %#x: xform %#x, byte loop %#x",
						wi, pattern, h0, got, want)
				}
			}
		}
	}
}

// TestFingerprintFastPathMatchesLineWalk builds a store holding every
// table-block shape Fingerprint discriminates, plus ordinary map lines,
// and demands Fingerprint agree bit for bit with the line-by-line
// reference after each step. Each step also checks which path its block
// takes, so no shape degenerates into another unnoticed.
func TestFingerprintFastPathMatchesLineWalk(t *testing.T) {
	s := NewStore()
	check := func(stage string, bi int, fast bool) {
		t.Helper()
		if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
			t.Fatalf("%s: fast-path fingerprint %#x, reference %#x", stage, got, want)
		}
		if b := s.block(bi); (b.written == ^uint64(0) && b.words == nil) != fast {
			t.Fatalf("%s: block %d takes the fast path = %v, want %v", stage, bi, !fast, fast)
		}
	}
	paint := func(bi, n int, pattern uint32) {
		s.FillTable(addr.Range{Base: blockAt(bi), Size: uint64(n * blockBytes)}, pattern)
	}

	// Ordinary map lines on both sides of the heap.
	s.WriteWord(0x100, 42)
	s.WriteWord(0x8000_0000, 7)
	if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
		t.Fatalf("map lines only: fast-path fingerprint %#x, reference %#x", got, want)
	}

	paint(0, 2, ^uint32(0))
	check("painted blocks", 1, true)
	paint(tblBlocks-1, 1, ^uint32(0))
	check("painted last block", tblBlocks-1, true)
	paint(3, 1, 0)
	check("painted all-zero block", 3, true)

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

// TestAbsentChunksReadZeroAndStayOut writes blocks in two chunks with an
// unwritten chunk between them. The walks (Fingerprint, Lines,
// LinesTouched) must skip the absent chunk and agree with the line-by-line
// reference, and reads inside it must return zero without allocating it.
func TestAbsentChunksReadZeroAndStayOut(t *testing.T) {
	s := NewStore()
	s.WriteWord(0x100, 42)
	lo, hi := 5, 2*chunkBlocks+3 // blocks in chunks 0 and 2
	s.FillTable(addr.Range{Base: blockAt(lo), Size: blockBytes}, ^uint32(0))
	s.WriteWord(blockAt(hi)+addr.LineBytes, 9) // block hi, line 1

	if got, want := s.Fingerprint(), slowFingerprint(s); got != want {
		t.Fatalf("fingerprint %#x, reference %#x", got, want)
	}
	if got, want := s.LinesTouched(), 1+blockLines+1; got != want {
		t.Fatalf("LinesTouched = %d, want %d", got, want)
	}
	want := []addr.Line{addr.LineOf(0x100)}
	for j := 0; j < blockLines; j++ {
		want = append(want, tblLine0+addr.Line(lo*blockLines+j))
	}
	want = append(want, tblLine0+addr.Line(hi*blockLines+1))
	if got := s.Lines(); !slices.Equal(got, want) {
		t.Fatalf("Lines = %v, want %v", got, want)
	}

	absent := blockAt(chunkBlocks + 7) // a block of chunk 1
	if s.ReadWord(absent+4) != 0 || s.ReadLine(addr.LineOf(absent)) != ([addr.WordsPerLine]uint32{}) {
		t.Fatal("an absent chunk reads nonzero")
	}
	if s.tbl[0] == nil || s.tbl[1] != nil || s.tbl[2] == nil {
		t.Fatalf("chunks allocated = %v %v %v, want true false true", s.tbl[0] != nil, s.tbl[1] != nil, s.tbl[2] != nil)
	}
}
