// Package region implements Cohesion's two region-tracking structures
// (paper §3.4, Figure 5):
//
//   - The coarse-grain region table: a small on-die structure holding a
//     handful of address ranges that are permanently in the SWcc domain —
//     code, per-core stacks, and immutable global data. It is consulted in
//     parallel with the directory on every L3 access.
//   - The fine-grain region table: an in-memory bitmap with one bit per
//     32-byte line (16 MB for a 4 GB space) that marks which lines are in
//     the SWcc domain. The bitmap lives at addr.TableBase, strided across
//     the L3 banks so that the table slice describing a line is homed at
//     the same bank as the line itself; the runtime toggles bits with
//     uncached atomics and the directory snoops those writes.
//
// The paper adds a hybrid.tbloff instruction to compute the bank-local
// table offset so software stays microarchitecture-agnostic; TblWordAddr
// is that instruction.
package region

import (
	"fmt"

	"cohesion/internal/addr"
	"cohesion/internal/dram"
)

// CoarseTable is the on-die SWcc range table. Lookups are over a few
// entries only (three in the paper: code, stacks, immutable globals).
type CoarseTable struct {
	ranges []addr.Range
}

// Add registers a range as permanently software-coherent. Overlapping an
// existing range is rejected: the runtime sets these up once at load time.
func (t *CoarseTable) Add(r addr.Range) error {
	if r.Size == 0 {
		return fmt.Errorf("region: empty coarse range %v", r)
	}
	for _, have := range t.ranges {
		if have.Overlaps(r) {
			return fmt.Errorf("region: coarse range %v overlaps %v", r, have)
		}
	}
	t.ranges = append(t.ranges, r)
	return nil
}

// Contains reports whether a falls in any registered SWcc range.
func (t *CoarseTable) Contains(a addr.Addr) bool {
	for _, r := range t.ranges {
		if r.Contains(a) {
			return true
		}
	}
	return false
}

// Len reports the number of registered ranges.
func (t *CoarseTable) Len() int { return len(t.ranges) }

// Ranges returns a copy of the registered ranges in registration order
// (run digests hash them).
func (t *CoarseTable) Ranges() []addr.Range {
	return append([]addr.Range(nil), t.ranges...)
}

// bankShift is the low bit of the bank-select field in a byte address:
// addr[10..0] stay within one bank row (the paper's DRAM-row stride), and
// the next log2(banks) bits pick the L3 bank.
const bankShift = 11

// BankOf maps a byte address to its home L3 bank. banks must be a power
// of two.
func BankOf(a addr.Addr, banks int) int {
	return int((uint64(a) >> bankShift) & uint64(banks-1))
}

// HomeBankOfLine maps a line to its home L3 bank.
func HomeBankOfLine(l addr.Line, banks int) int {
	return BankOf(l.Base(), banks)
}

// TblWordAddr is the hybrid.tbloff instruction: it returns the word-aligned
// address of the fine-grain-table word holding the bit for target address
// a, in a machine with the given L3 bank count (power of two).
//
// The permutation keeps the table word in the same L3 bank as a itself, so
// a bank never queries another bank on a table lookup, and is a bijection
// from line numbers to (word, bit) pairs. Bits a[9..5] select the bit
// within the 32-bit word, as in the paper's footnote.
func TblWordAddr(a addr.Addr, banks int) addr.Addr {
	k := uint(0)
	for 1<<k < banks {
		k++
	}
	v := uint64(a)
	bit := func(lo, n uint) uint64 { return (v >> lo) & (1<<n - 1) }

	// Byte offset bits (24 total for the 16 MB table):
	//   off[1:0]        = a[9:8]    (word-internal byte, conceptually)
	//   off[2]          = a[10]
	//   off[10+k:11]    = a[10+k:11] (bank bits, preserved in place)
	//   off[3:10]       = a[18+k:11+k]
	//   off[23:11+k]    = a[31:19+k]
	off := bit(8, 3) // a[10..8] -> off[2..0]
	off |= bit(11+k, 8) << 3
	off |= bit(11, k) << 11
	off |= bit(19+k, 13-k) << (11 + k)
	return addr.TableBase + addr.Addr(off&^3)
}

// TblBitIndex returns the bit position (0..31) of address a's line within
// its table word: a[9..5].
func TblBitIndex(a addr.Addr) uint { return uint(a>>5) & 31 }

// InvTblAddr inverts TblWordAddr/TblBitIndex: given the word-aligned table
// address and a bit index within that word, it returns the line whose
// domain that bit tracks. The directory uses this to decode which lines a
// snooped table write transitions (paper §3.6).
func InvTblAddr(wordAddr addr.Addr, bit uint, banks int) addr.Line {
	k := uint(0)
	for 1<<k < banks {
		k++
	}
	off := uint64(wordAddr - addr.TableBase)
	field := func(lo, n uint) uint64 { return (off >> lo) & (1<<n - 1) }

	var a uint64
	a |= uint64(bit&31) << 5     // a[9..5]
	a |= field(2, 1) << 10       // a[10]
	a |= field(11, k) << 11      // bank bits a[10+k..11]
	a |= field(3, 8) << (11 + k) // a[18+k..11+k]
	a |= field(11+k, 13-k) << (19 + k)
	return addr.LineOf(addr.Addr(a))
}

// FineTable provides typed access to the fine-grain bitmap stored in
// memory. A set bit means the line is in the SWcc domain; the default
// (zeroed memory) keeps everything hardware-coherent, matching the
// paper's "default behavior for Cohesion is to keep all of memory
// coherent in the HWcc domain".
type FineTable struct {
	store *dram.Store
	banks int
}

// NewFineTable wraps the backing store for a machine with the given L3
// bank count.
func NewFineTable(store *dram.Store, banks int) *FineTable {
	if banks < 1 || banks&(banks-1) != 0 {
		panic("region: bank count must be a power of two")
	}
	return &FineTable{store: store, banks: banks}
}

// IsSWcc reports whether the line containing a is marked software-coherent.
func (t *FineTable) IsSWcc(a addr.Addr) bool {
	w := t.store.ReadWord(TblWordAddr(a, t.banks))
	return w&(1<<TblBitIndex(a)) != 0
}

// Set marks the line containing a as SWcc, returning the table word
// address that was modified (the runtime issues its atomic there).
func (t *FineTable) Set(a addr.Addr) addr.Addr {
	wa := TblWordAddr(a, t.banks)
	t.store.WriteWord(wa, t.store.ReadWord(wa)|1<<TblBitIndex(a))
	return wa
}

// Clear marks the line containing a as HWcc.
func (t *FineTable) Clear(a addr.Addr) addr.Addr {
	wa := TblWordAddr(a, t.banks)
	t.store.WriteWord(wa, t.store.ReadWord(wa)&^(1<<TblBitIndex(a)))
	return wa
}

// SetRange bulk-marks every line of [r.Base, r.End()) as SWcc. TblWordAddr
// maps an aligned span of banks × 512 KiB onto one contiguous run of whole
// table blocks, so whole spans are painted a block at a time. One table
// word covers a contiguous, 1 KB-aligned block of the address space (bits
// a[9..5] select the bit within the word), so the remaining 1 KB blocks
// are written a word at a time; ragged edges fall back to per-line sets.
// Used by load-time runtime initialization, outside simulated time.
func (t *FineTable) SetRange(r addr.Range) {
	a := addr.LineAlign(r.Base)
	end := addr.LineAlignUp(r.End())
	span := addr.Addr(t.banks) << 19
	const block = 1 << 10
	for a < end {
		switch {
		case a%span == 0 && a+span <= end:
			// One table bit per 32-byte line: a span's table run is span/256 bytes.
			t.store.FillTable(addr.Range{Base: TblWordAddr(a, t.banks), Size: uint64(span >> 8)}, ^uint32(0))
			a += span
		case a%block == 0 && a+block <= end:
			t.store.WriteWord(TblWordAddr(a, t.banks), ^uint32(0))
			a += block
		default:
			t.Set(a)
			a += addr.LineBytes
		}
	}
}

// InTableRange reports whether a falls inside the table's own storage;
// the directory snoops writes in this range (paper §3.6).
func InTableRange(a addr.Addr) bool {
	return a >= addr.TableBase && a < addr.TableBase+addr.TableBytes
}
