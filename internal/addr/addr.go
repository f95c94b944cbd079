// Package addr defines the single 32-bit address space shared by every core
// in the simulated machine, along with line/word arithmetic helpers.
//
// Following the paper (§3.5) there is one application and physical addresses
// equal virtual addresses. The runtime lays out segments as follows:
//
//	0x0000_1000  code segment                (coarse-grain SWcc region)
//	0x1000_0000  immutable globals/constants (coarse-grain SWcc region)
//	0x2000_0000  coherent heap               (always HWcc; libc-style malloc)
//	0x4000_0000  incoherent heap             (Cohesion-managed; coh_malloc)
//	0x7000_0000  per-core stacks             (coarse-grain SWcc region)
//	0xF000_0000  fine-grain region table     (16 MB bitmap, 1 bit / 32 B line)
package addr

import "fmt"

// Fundamental geometry of the memory system (paper Table 3: 32-byte lines;
// the Rigel ISA is 32-bit, so words are 4 bytes).
const (
	WordBytes    = 4
	LineBytes    = 32
	WordsPerLine = LineBytes / WordBytes

	LineShift = 5 // log2(LineBytes)
	WordShift = 2 // log2(WordBytes)
)

// Segment base addresses. See the package comment for the map.
const (
	CodeBase    Addr = 0x0000_1000
	GlobalBase  Addr = 0x1000_0000
	HeapBase    Addr = 0x2000_0000
	CohHeapBase Addr = 0x4000_0000
	StackBase   Addr = 0x7000_0000
	TableBase   Addr = 0xF000_0000

	// TableBytes is the size of the fine-grain region table: one bit per
	// 32-byte line over a 4 GB address space = 16 MB (paper §3.4).
	TableBytes = 1 << 24
)

// Addr is a byte address in the single 32-bit address space. It is stored
// in a uint64 so table-offset arithmetic cannot overflow, but valid
// addresses always fit in 32 bits.
type Addr uint64

// Line identifies a 32-byte cache line (Addr >> LineShift). A valid
// address has 32 bits, so a line number has 27 (the largest is 2^27-1)
// and a uint32 holds it: every cache entry, directory entry and message
// that names a line carries four bytes for it. Base widens back to Addr
// before shifting, so a line's base address never wraps.
type Line uint32

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Base returns the address of the first byte of the line.
func (l Line) Base() Addr { return Addr(l) << LineShift }

// WordIndex returns the index (0..7) of the word containing a within its line.
func WordIndex(a Addr) uint { return uint(a>>WordShift) & (WordsPerLine - 1) }

// WordAlign rounds a down to a word boundary.
func WordAlign(a Addr) Addr { return a &^ (WordBytes - 1) }

// LineAlign rounds a down to a line boundary.
func LineAlign(a Addr) Addr { return a &^ (LineBytes - 1) }

// LineAlignUp rounds a up to a line boundary.
func LineAlignUp(a Addr) Addr { return (a + LineBytes - 1) &^ (LineBytes - 1) }

// LinesCovering returns the lines overlapping [a, a+size).
func LinesCovering(a Addr, size uint64) []Line {
	if size == 0 {
		return nil
	}
	first := LineOf(a)
	last := LineOf(a + Addr(size) - 1)
	lines := make([]Line, 0, last-first+1)
	for l := first; l <= last; l++ {
		lines = append(lines, l)
	}
	return lines
}

// Class categorizes an address by segment, for the directory-occupancy
// breakdown of Figure 9c (code / stack / heap+global).
type Class uint8

const (
	ClassCode Class = iota
	ClassHeapGlobal
	ClassStack
	ClassTable
	numClasses
)

// NumClasses is the number of address classes.
const NumClasses = int(numClasses)

func (c Class) String() string {
	switch c {
	case ClassCode:
		return "code"
	case ClassHeapGlobal:
		return "heap/global"
	case ClassStack:
		return "stack"
	case ClassTable:
		return "table"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Classify maps an address to its Figure-9c class. Globals are grouped with
// the heap, as in the paper ("heap allocations and static global data").
func Classify(a Addr) Class {
	switch {
	case a >= TableBase:
		return ClassTable
	case a >= StackBase:
		return ClassStack
	case a >= GlobalBase:
		return ClassHeapGlobal
	default:
		return ClassCode
	}
}

// Range is a half-open address interval [Base, Base+Size).
type Range struct {
	Base Addr
	Size uint64
}

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool {
	return a >= r.Base && a < r.Base+Addr(r.Size)
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Size) }

// Overlaps reports whether two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return r.Base < o.End() && o.Base < r.End()
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Base), uint64(r.End()))
}
