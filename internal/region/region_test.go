package region

import (
	"runtime"
	"testing"
	"testing/quick"

	"cohesion/internal/addr"
	"cohesion/internal/dram"
)

func TestCoarseTable(t *testing.T) {
	var ct CoarseTable
	if ct.Contains(0x1000) {
		t.Fatal("empty table contains")
	}
	if err := ct.Add(addr.Range{Base: 0x1000, Size: 0x1000}); err != nil {
		t.Fatal(err)
	}
	if err := ct.Add(addr.Range{Base: addr.StackBase, Size: 0x4000}); err != nil {
		t.Fatal(err)
	}
	if ct.Len() != 2 {
		t.Fatalf("Len = %d", ct.Len())
	}
	if !ct.Contains(0x1000) || !ct.Contains(0x1fff) || ct.Contains(0x2000) {
		t.Fatal("coarse containment wrong")
	}
	if !ct.Contains(addr.StackBase + 100) {
		t.Fatal("stack range missing")
	}
	if err := ct.Add(addr.Range{Base: 0x1800, Size: 16}); err == nil {
		t.Fatal("overlap accepted")
	}
	if err := ct.Add(addr.Range{Base: 0x9000, Size: 0}); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestBankOf(t *testing.T) {
	if BankOf(0, 32) != 0 {
		t.Fatal("bank of 0")
	}
	if BankOf(1<<11, 32) != 1 || BankOf(2<<11, 32) != 2 || BankOf(32<<11, 32) != 0 {
		t.Fatal("bank striding wrong")
	}
	// Addresses within one 2KB row share a bank.
	if BankOf(0x1234, 32) != BankOf(0x1000, 32) {
		t.Fatal("row locality broken")
	}
	if HomeBankOfLine(addr.LineOf(3<<11), 8) != 3 {
		t.Fatal("HomeBankOfLine wrong")
	}
}

func TestTblWordAddrBankLocality(t *testing.T) {
	// The table word for any address must live in the same L3 bank as the
	// address itself, for every bank count.
	for _, banks := range []int{1, 2, 4, 8, 16, 32} {
		for _, a := range []addr.Addr{0, 0x1000, 0x12345678, 0x7fffffe0, 0xdeadbee0, 0x4000_0040} {
			wa := TblWordAddr(a, banks)
			if !InTableRange(wa) {
				t.Fatalf("banks=%d a=%#x: table addr %#x outside table", banks, uint64(a), uint64(wa))
			}
			if wa&3 != 0 {
				t.Fatalf("table addr %#x not word aligned", uint64(wa))
			}
			if BankOf(wa, banks) != BankOf(a, banks) {
				t.Fatalf("banks=%d a=%#x bank %d but table addr %#x bank %d",
					banks, uint64(a), BankOf(a, banks), uint64(wa), BankOf(wa, banks))
			}
		}
	}
}

// Property: (word address, bit index) is injective over lines — no two
// distinct lines share a table bit.
func TestQuickTblBijective(t *testing.T) {
	f := func(x, y uint32, banksel uint8) bool {
		banks := 1 << (banksel % 6)
		a, b := addr.LineAlign(addr.Addr(x)), addr.LineAlign(addr.Addr(y))
		if a == b {
			return true
		}
		wa, ba := TblWordAddr(a, banks), TblBitIndex(a)
		wb, bb := TblWordAddr(b, banks), TblBitIndex(b)
		return wa != wb || ba != bb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: all addresses within one line map to the same table bit.
func TestQuickTblLineGranularity(t *testing.T) {
	f := func(x uint32, off uint8) bool {
		a := addr.LineAlign(addr.Addr(x))
		b := a + addr.Addr(off%addr.LineBytes)
		return TblWordAddr(a, 8) == TblWordAddr(b, 8) && TblBitIndex(a) == TblBitIndex(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFineTable(t *testing.T) {
	store := dram.NewStore()
	ft := NewFineTable(store, 8)
	a := addr.Addr(0x4000_0040)
	if ft.IsSWcc(a) {
		t.Fatal("default must be HWcc (bit clear)")
	}
	wa := ft.Set(a)
	if !ft.IsSWcc(a) {
		t.Fatal("Set did not take")
	}
	if !InTableRange(wa) {
		t.Fatal("Set returned non-table address")
	}
	// Neighboring line unaffected.
	if ft.IsSWcc(a + addr.LineBytes) {
		t.Fatal("neighbor bit set")
	}
	// Same line, different word: still SWcc.
	if !ft.IsSWcc(a + 4) {
		t.Fatal("line granularity broken")
	}
	ft.Clear(a)
	if ft.IsSWcc(a) {
		t.Fatal("Clear did not take")
	}
}

func TestFineTableManyLines(t *testing.T) {
	store := dram.NewStore()
	ft := NewFineTable(store, 32)
	// Set a dense run of lines and verify exactly those are SWcc.
	base := addr.Addr(0x4000_0000)
	for i := 0; i < 256; i++ {
		ft.Set(base + addr.Addr(i*addr.LineBytes))
	}
	for i := 0; i < 512; i++ {
		a := base + addr.Addr(i*addr.LineBytes)
		if ft.IsSWcc(a) != (i < 256) {
			t.Fatalf("line %d: IsSWcc = %v", i, ft.IsSWcc(a))
		}
	}
}

func TestNewFineTableBadBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two banks accepted")
		}
	}()
	NewFineTable(dram.NewStore(), 3)
}

func TestInTableRange(t *testing.T) {
	if InTableRange(addr.TableBase-1) || !InTableRange(addr.TableBase) ||
		!InTableRange(addr.TableBase+addr.TableBytes-1) || InTableRange(addr.TableBase+addr.TableBytes) {
		t.Fatal("table range boundaries wrong")
	}
}

func TestSetRangeMatchesPerLineSet(t *testing.T) {
	// Bulk SetRange must mark exactly the same bits as per-line Set, and
	// write the same table lines, for ragged, word-aligned and whole-span
	// ranges alike.
	const mib = 1 << 20
	cases := []struct {
		banks int
		r     addr.Range
	}{
		{8, addr.Range{Base: addr.CohHeapBase, Size: 4096}},       // block-aligned
		{8, addr.Range{Base: addr.CohHeapBase + 96, Size: 3000}},  // ragged both ends
		{8, addr.Range{Base: addr.CohHeapBase + 0x3e0, Size: 64}}, // straddles a block edge
		{8, addr.Range{Base: addr.CohHeapBase + 1, Size: 33}},     // unaligned base/size
		{8, addr.Range{Base: addr.CohHeapBase, Size: 4 * mib}},    // one whole span
		// Ragged head, two whole spans, ragged tail.
		{8, addr.Range{Base: addr.CohHeapBase + 4*mib - 3000, Size: 8*mib + 5000}},
		{1, addr.Range{Base: addr.CohHeapBase + mib/2 - 96, Size: 2 * mib}},
		{32, addr.Range{Base: addr.CohHeapBase, Size: 16*mib + 1024}},
	}
	for _, c := range cases {
		r := c.r
		bulk := NewFineTable(dram.NewStore(), c.banks)
		bulk.SetRange(r)
		ref := NewFineTable(dram.NewStore(), c.banks)
		for _, l := range addr.LinesCovering(r.Base, r.Size) {
			ref.Set(l.Base())
		}
		lo := addr.LineAlign(r.Base) - 2048
		hi := addr.LineAlignUp(r.End()) + 2048
		for a := lo; a < hi; a += addr.LineBytes {
			if bulk.IsSWcc(a) != ref.IsSWcc(a) {
				t.Fatalf("banks %d range %v: mismatch at %#x (bulk=%v)", c.banks, r, uint64(a), bulk.IsSWcc(a))
			}
		}
		if got, want := bulk.store.Fingerprint(), ref.store.Fingerprint(); got != want {
			t.Fatalf("banks %d range %v: table image fingerprint %#x, per-line %#x", c.banks, r, got, want)
		}
	}
}

// TestSetRangeAllocatesBlocksNotTable locks in that painting a range
// allocates only the table chunks it writes into. The whole 256 MiB
// incoherent heap costs its chunks of block headers, not a dense copy of
// the 16 MiB table; one line, the fuzzer's preset, costs one chunk plus
// the block its write copies out.
func TestSetRangeAllocatesBlocksNotTable(t *testing.T) {
	for _, c := range []struct {
		name  string
		r     addr.Range
		under uint64
	}{
		{"the incoherent heap", addr.Range{Base: addr.CohHeapBase, Size: 256 << 20}, 32 << 10},
		{"one line", addr.Range{Base: addr.CohHeapBase + 0x140, Size: addr.LineBytes}, 8 << 10},
	} {
		ft := NewFineTable(dram.NewStore(), 8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ft.SetRange(c.r)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("SetRange over %s allocated %d bytes", c.name, got)
		if got >= c.under {
			t.Errorf("SetRange over %s allocated %d bytes, want under %d", c.name, got, c.under)
		}
		if !ft.IsSWcc(c.r.Base) || !ft.IsSWcc(c.r.End()-1) || ft.IsSWcc(c.r.End()) {
			t.Errorf("SetRange over %s painted the wrong span", c.name)
		}
	}
}
