package addr

import (
	"testing"
	"testing/quick"
)

func TestLineArithmetic(t *testing.T) {
	a := Addr(0x1234)
	l := LineOf(a)
	if l.Base() != 0x1220 {
		t.Fatalf("Base = %#x, want 0x1220", uint64(l.Base()))
	}
	if LineAlign(a) != 0x1220 {
		t.Fatalf("LineAlign = %#x", uint64(LineAlign(a)))
	}
	if LineAlignUp(a) != 0x1240 {
		t.Fatalf("LineAlignUp = %#x", uint64(LineAlignUp(a)))
	}
	if LineAlignUp(0x1220) != 0x1220 {
		t.Fatal("LineAlignUp not idempotent on aligned address")
	}
	if WordIndex(0x1234) != 5 {
		t.Fatalf("WordIndex(0x1234) = %d, want 5", WordIndex(0x1234))
	}
	if WordAlign(0x1237) != 0x1234 {
		t.Fatalf("WordAlign = %#x", uint64(WordAlign(0x1237)))
	}
}

// TestLastLine: the last line of the 32-bit address space has a number
// that fits a Line, and its base widens to an Addr without wrapping.
func TestLastLine(t *testing.T) {
	if b := LineOf(0xFFFF_FFFF).Base(); b != 0xFFFF_FFE0 {
		t.Fatalf("LineOf(0xFFFF_FFFF).Base() = %#x, want 0xffffffe0", uint64(b))
	}
	if l := LineOf(0xFFFF_FFFF); l != 1<<27-1 {
		t.Fatalf("LineOf(0xFFFF_FFFF) = %#x, want %#x", uint64(l), 1<<27-1)
	}
}

func TestLinesCovering(t *testing.T) {
	if got := LinesCovering(0x100, 0); got != nil {
		t.Fatalf("zero size: %v", got)
	}
	got := LinesCovering(0x10, 0x30) // spans [0x10,0x40): lines 0 and 1
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("LinesCovering = %v", got)
	}
	got = LinesCovering(0x20, 32) // exactly line 1
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("LinesCovering aligned = %v", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		a Addr
		c Class
	}{
		{CodeBase, ClassCode},
		{CodeBase + 0x100, ClassCode},
		{GlobalBase, ClassHeapGlobal},
		{HeapBase + 4, ClassHeapGlobal},
		{CohHeapBase + 64, ClassHeapGlobal},
		{StackBase, ClassStack},
		{StackBase + 0x1000, ClassStack},
		{TableBase, ClassTable},
		{TableBase + 100, ClassTable},
	}
	for _, c := range cases {
		if got := Classify(c.a); got != c.c {
			t.Errorf("Classify(%#x) = %v, want %v", uint64(c.a), got, c.c)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassCode: "code", ClassHeapGlobal: "heap/global",
		ClassStack: "stack", ClassTable: "table",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("unknown class String = %q", Class(99).String())
	}
}

func TestRange(t *testing.T) {
	r := Range{Base: 0x100, Size: 0x40}
	if !r.Contains(0x100) || !r.Contains(0x13f) || r.Contains(0x140) || r.Contains(0xff) {
		t.Fatal("Contains wrong at boundaries")
	}
	if r.End() != 0x140 {
		t.Fatalf("End = %#x", uint64(r.End()))
	}
	if !r.Overlaps(Range{0x13f, 1}) || r.Overlaps(Range{0x140, 8}) || r.Overlaps(Range{0x0, 0x100}) {
		t.Fatal("Overlaps wrong")
	}
	if r.String() != "[0x100,0x140)" {
		t.Fatalf("String = %q", r.String())
	}
}

// Property: every address belongs to the line LineOf reports, word index is
// always in range, and alignment helpers are consistent.
func TestQuickLineProperties(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		l := LineOf(a)
		if a < l.Base() || a >= l.Base()+LineBytes {
			return false
		}
		if WordIndex(a) >= WordsPerLine {
			return false
		}
		if LineOf(LineAlign(a)) != l || LineAlign(a) != l.Base() {
			return false
		}
		up := LineAlignUp(a)
		if up < a || up-a >= LineBytes {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LinesCovering covers exactly the bytes of the range.
func TestQuickLinesCovering(t *testing.T) {
	f := func(raw uint32, sz uint16) bool {
		a, size := Addr(raw), uint64(sz)
		lines := LinesCovering(a, size)
		if size == 0 {
			return lines == nil
		}
		// Contiguity and coverage.
		if lines[0] != LineOf(a) || lines[len(lines)-1] != LineOf(a+Addr(size)-1) {
			return false
		}
		for i := 1; i < len(lines); i++ {
			if lines[i] != lines[i-1]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
