package dram

import (
	"maps"
	"slices"
	"testing"

	"cohesion/internal/addr"
)

// lineMap is the reference model for Store: one map entry per written
// line, the image read in sorted key order. It is how the store held
// every line outside the region table before blocks held all memory.
type lineMap map[addr.Line]*[addr.WordsPerLine]uint32

// at returns line l for writing, creating it zeroed.
func (m lineMap) at(l addr.Line) *[addr.WordsPerLine]uint32 {
	p := m[l]
	if p == nil {
		p = new([addr.WordsPerLine]uint32)
		m[l] = p
	}
	return p
}

func (m lineMap) read(l addr.Line) [addr.WordsPerLine]uint32 {
	if p := m[l]; p != nil {
		return *p
	}
	return [addr.WordsPerLine]uint32{}
}

func (m lineMap) fingerprint() uint64 {
	h := uint64(fnv64Offset)
	for _, l := range slices.Sorted(maps.Keys(m)) {
		h = mixLine(h, l, m[l])
	}
	return h
}

// Store operations a fuzz input encodes, one per 8 bytes.
const (
	opWriteWord = iota
	opMergeLine
	opFillTable
	opReadWord
	opReadLine
	numOps
)

// fuzzBases are the addresses a fuzz op starts from: every segment base,
// address 0, both ends of the region table and the last line below 4 GiB.
var fuzzBases = []addr.Addr{
	0, addr.CodeBase, addr.GlobalBase, addr.HeapBase, addr.CohHeapBase, addr.StackBase,
	addr.TableBase, addr.TableBase + addr.TableBytes, 1<<32 - addr.LineBytes,
}

// fuzzStrides step an op's address from its base by whole lines, blocks,
// chunks or regions, so small offsets land on both sides of every edge.
var fuzzStrides = [4]int64{addr.LineBytes, blockBytes, 1 << chunkShift, 1 << regionShift}

// fuzzOp encodes one operation: kind, base index, stride count, stride
// index, signed word offset, value selector, and two value bytes (the
// last is also a merge mask and a block count).
func fuzzOp(kind, base byte, steps int8, stride byte, words int8, vsel, v0, v1 byte) []byte {
	return []byte{kind, base, byte(steps), stride, byte(words), vsel, v0, v1}
}

// FuzzStoreMatchesLineMap drives a Store and the line-map model with one
// stream of writes, merges, fills and reads, checks every read back
// against the model, and at the end demands the same lines in strictly
// ascending order and the same fingerprint.
func FuzzStoreMatchesLineMap(f *testing.F) {
	const table, top = 6, 8 // indices into fuzzBases
	f.Add([]byte{})
	// A painted table block: a write equal to its pattern, one of zero,
	// a merge, then a repaint and reads.
	f.Add(slices.Concat(
		fuzzOp(opFillTable, table, 0, 0, 0, 1, 0, 1),
		fuzzOp(opWriteWord, table, 1, 0, 3, 1, 0, 0),
		fuzzOp(opWriteWord, table, 2, 0, 0, 0, 0, 0),
		fuzzOp(opMergeLine, table, 40, 0, 0, 2, 0x5a, 0b1010_0101),
		fuzzOp(opFillTable, table, 1, 1, 0, 2, 0x33, 0),
		fuzzOp(opReadLine, table, 40, 0, 0, 0, 0, 0),
		fuzzOp(opReadWord, table, 1, 1, -1, 0, 0, 0),
	))
	// One write on each side of every segment base's region, chunk and
	// block edge.
	var edges []byte
	for b := byte(0); b < byte(len(fuzzBases)); b++ {
		for stride := byte(1); stride < 4; stride++ {
			edges = append(edges,
				fuzzOp(opWriteWord, b, 1, stride, -1, 3, b, stride)...)
			edges = append(edges,
				fuzzOp(opMergeLine, b, 1, stride, 0, 2, b, 0xff)...)
		}
		edges = append(edges, fuzzOp(opWriteWord, b, 0, 0, -1, 0, 0, 0)...)
	}
	f.Add(edges)
	// The top of memory: a fill of the last block, a write that wraps to
	// address 0, and zero and pattern-equal writes into the fill.
	f.Add(slices.Concat(
		fuzzOp(opFillTable, top, 0, 0, 0, 1, 0, 3),
		fuzzOp(opWriteWord, top, 0, 0, 8, 3, 1, 2),
		fuzzOp(opWriteWord, top, -3, 0, 0, 0, 0, 0),
		fuzzOp(opWriteWord, top, -5, 0, 2, 1, 0, 0),
		fuzzOp(opReadWord, 0, 0, 0, 0, 0, 0, 0),
		fuzzOp(opReadLine, top, -5, 0, 0, 0, 0, 0),
	))

	f.Fuzz(func(t *testing.T, in []byte) {
		s, m := NewStore(), lineMap{}
		for ; len(in) >= 8; in = in[8:] {
			b := in[:8]
			off := int64(int8(b[2]))*fuzzStrides[b[3]%4] + int64(int8(b[4]))*addr.WordBytes
			a := addr.Addr(uint32(int64(fuzzBases[int(b[1])%len(fuzzBases)]) + off))
			v := [4]uint32{0, ^uint32(0), uint32(b[6]) * 0x01010101, uint32(b[6])<<24 | uint32(b[7])}[b[5]%4]
			line := addr.LineOf(a)
			checked := []addr.Line{line}
			switch b[0] % numOps {
			case opWriteWord:
				s.WriteWord(a, v)
				m.at(line)[addr.WordIndex(a)] = v
			case opMergeLine:
				mask := b[7]
				var data [addr.WordsPerLine]uint32
				for w := range data {
					data[w] = 0xbad0_0000 | uint32(w) // must not land
					if mask&(1<<w) != 0 {
						data[w] = v
					}
				}
				s.MergeLine(line, mask, data)
				if mask != 0 {
					l := m.at(line)
					for w := range data {
						if mask&(1<<w) != 0 {
							l[w] = v
						}
					}
				}
			case opFillTable:
				base := a &^ (blockBytes - 1)
				n := min(1+int(b[7]%4), int((1<<32-base)/blockBytes))
				r := addr.Range{Base: base, Size: uint64(n * blockBytes)}
				s.FillTable(r, v)
				for l := addr.LineOf(r.Base); l < addr.LineOf(r.End()); l++ {
					*m.at(l) = [addr.WordsPerLine]uint32{v, v, v, v, v, v, v, v}
				}
				checked = []addr.Line{addr.LineOf(r.Base), addr.LineOf(r.End()) - 1}
			case opReadWord:
				if got, want := s.ReadWord(a), m.read(line)[addr.WordIndex(a)]; got != want {
					t.Fatalf("ReadWord(%#x) = %#x, model %#x", uint64(a), got, want)
				}
			case opReadLine: // checked with every op below
			}
			for _, l := range checked {
				if got, want := s.ReadLine(l), m.read(l); got != want {
					t.Fatalf("op % x: ReadLine(%#x) = %#x, model %#x", b, uint64(l), got, want)
				}
			}
		}
		lines := s.Lines()
		for i := 1; i < len(lines); i++ {
			if lines[i] <= lines[i-1] {
				t.Fatalf("Lines not strictly ascending at %d: %#x after %#x", i, uint64(lines[i]), uint64(lines[i-1]))
			}
		}
		if want := slices.Sorted(maps.Keys(m)); !slices.Equal(lines, want) {
			t.Fatalf("Lines = %d lines, model %d (%v against %v)", len(lines), len(want), lines, want)
		}
		if got, want := s.Fingerprint(), m.fingerprint(); got != want {
			t.Fatalf("Fingerprint = %#x, model %#x", got, want)
		}
	})
}
