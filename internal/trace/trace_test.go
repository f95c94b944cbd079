package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRecordStringKeepsSimTimeColumn(t *testing.T) {
	r := Record{Cycle: 42, Site: "home3", Event: "msi.read_miss_alloc_s", Line: 0x100, Cluster: 2}
	if s, want := r.String(), "        42 home3    msi.read_miss_alloc_s line=0x100 cl=2"; s != want {
		t.Fatalf("String = %q, want %q", s, want)
	}
	span := Record{Cycle: 7, Site: "cl0", Event: "RdReq", Line: 0x40, Cluster: 0, ID: 0xabc, Phase: 'b'}
	if s, want := span.String(), "         7 cl0      RdReq line=0x40 cl=0 txn=0xabc b"; s != want {
		t.Fatalf("span String = %q, want %q", s, want)
	}
}

// TestRecordFitsOneCacheLine: the default ring holds 2^20 records, so a
// record stays within 64 bytes.
func TestRecordFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n > 64 {
		t.Fatalf("sizeof(Record) = %d bytes, want at most 64", n)
	}
}

func TestSinkRingWraparound(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Add(Record{Cycle: uint64(i), Site: "cl0", Event: fmt.Sprintf("ev%d", i)})
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	if s.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", s.Dropped())
	}
	recs := s.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	// Oldest first: cycles 6, 7, 8, 9.
	for i, r := range recs {
		if want := uint64(6 + i); r.Cycle != want {
			t.Fatalf("record %d cycle = %d, want %d", i, r.Cycle, want)
		}
	}
}

func TestSinkBelowCapacity(t *testing.T) {
	s := NewSink(0) // default capacity
	for i := 0; i < 100; i++ {
		s.Add(Record{Cycle: uint64(i)})
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", s.Dropped())
	}
	recs := s.Records()
	if len(recs) != 100 || recs[0].Cycle != 0 || recs[99].Cycle != 99 {
		t.Fatalf("records wrong: len=%d", len(recs))
	}
}

func TestWriteTextMentionsDrops(t *testing.T) {
	s := NewSink(2)
	for i := 0; i < 5; i++ {
		s.Add(Record{Cycle: uint64(i), Site: "net", Event: "drop"})
	}
	var b bytes.Buffer
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "3 earlier records dropped") {
		t.Fatalf("drop notice missing:\n%s", out)
	}
	if n := strings.Count(out, "net"); n != 2 {
		t.Fatalf("%d record lines, want 2:\n%s", n, out)
	}
	// A tail counts the retained records it leaves out as dropped too.
	b.Reset()
	if err := s.WriteTail(&b, 1); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "4 earlier records dropped") || strings.Count(out, "net") != 1 {
		t.Fatalf("tail of 1 rendered:\n%s", out)
	}
}

// Property: the ring always keeps exactly the last min(n, cap) records in
// insertion order, and Tail(k) is the last min(k, n, cap) of them.
func TestQuickTraceRingKeepsTail(t *testing.T) {
	keepsLast := func(rs []Record, n, want int) bool {
		if len(rs) != want {
			return false
		}
		for i, r := range rs {
			if r.Cycle != uint64(n-want+i) {
				return false
			}
		}
		return true
	}
	f := func(capRaw, n, kRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		s := NewSink(capacity)
		for i := 0; i < int(n); i++ {
			s.Add(Record{Cycle: uint64(i), Site: "s", Event: string(rune('a' + i%26))})
		}
		held := min(int(n), capacity)
		k := int(kRaw % 20)
		return keepsLast(s.Records(), int(n), held) &&
			keepsLast(s.Tail(k), int(n), min(k, held)) &&
			s.Total() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// chromeTrace mirrors the export schema for validation.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Phase string         `json:"ph"`
		TS    uint64         `json:"ts"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Scope string         `json:"s"`
		ID    string         `json:"id"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeJSON(t *testing.T) {
	s := NewSink(0)
	s.Add(Record{Cycle: 5, Site: "cl0", Event: "RdReq", Line: 0x40, ID: 0xabc, Phase: 'b'})
	s.Add(Record{Cycle: 9, Site: "home1", Event: "msi.read_miss_alloc_s", Line: 0x40, Cluster: 0})
	s.Add(Record{Cycle: 12, Site: "cl0", Event: "RdReq", Line: 0x40, ID: 0xabc, Phase: 'e'})

	var b bytes.Buffer
	if err := s.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(b.Bytes(), &tr); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	var threads []string
	var begins, ends, instants int
	for _, ev := range tr.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata event %+v", ev)
			}
			threads = append(threads, ev.Args["name"].(string))
		case "b":
			begins++
			if ev.ID != "0xabc" || ev.Cat != "txn" || ev.Name != "txn" || ev.Args["kind"] != "RdReq" {
				t.Fatalf("begin event wrong: %+v", ev)
			}
		case "e":
			ends++
			if ev.ID != "0xabc" {
				t.Fatalf("end event wrong: %+v", ev)
			}
		case "i":
			instants++
			if ev.Scope != "t" || ev.Name != "msi.read_miss_alloc_s" || ev.TS != 9 ||
				ev.Args["line"] != "0x40" || ev.Args["cluster"] != 0.0 {
				t.Fatalf("instant event wrong: %+v", ev)
			}
		default:
			t.Fatalf("unknown phase %q", ev.Phase)
		}
	}
	// Sites sorted: cl0 then home1.
	if len(threads) != 2 || threads[0] != "cl0" || threads[1] != "home1" {
		t.Fatalf("thread metadata wrong: %v", threads)
	}
	if begins != 1 || ends != 1 || instants != 1 {
		t.Fatalf("event mix wrong: %d begins, %d ends, %d instants", begins, ends, instants)
	}
}

func TestChromeJSONDeterministic(t *testing.T) {
	mk := func() string {
		s := NewSink(0)
		s.Add(Record{Cycle: 1, Site: "home2", Event: "a"})
		s.Add(Record{Cycle: 2, Site: "cl1", Event: "b"})
		var b bytes.Buffer
		if err := s.WriteChromeJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if mk() != mk() {
		t.Fatal("repeated exports of the same records differ")
	}
}

func TestEdgeCatalogComplete(t *testing.T) {
	names := EdgeNames()
	if len(names) != EdgeCount {
		t.Fatalf("%d names for %d edges", len(names), EdgeCount)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" || strings.HasPrefix(name, "edge(") {
			t.Fatalf("edge %d has no catalog name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate edge name %q", name)
		}
		seen[name] = true
		prefix, _, ok := strings.Cut(name, ".")
		if !ok {
			t.Fatalf("edge name %q missing dotted group prefix", name)
		}
		switch prefix {
		case "msi", "dir", "l2", "coh", "rec":
		default:
			t.Fatalf("edge name %q has unknown group %q", name, prefix)
		}
	}
	if EdgeID(NumEdges).String() == "" {
		t.Fatal("out-of-range String must not be empty")
	}
}

func TestCoverageMarkAndUncovered(t *testing.T) {
	c := NewCoverage()
	if c.Covered() != 0 || len(c.Uncovered()) != EdgeCount {
		t.Fatal("fresh tracker not empty")
	}
	c.Mark(EdgeL2FillShared)
	c.Mark(EdgeL2FillShared)
	c.Mark(EdgeHomeReadMissAllocS)
	if c.Count(EdgeL2FillShared) != 2 {
		t.Fatalf("Count = %d", c.Count(EdgeL2FillShared))
	}
	if c.Covered() != 2 {
		t.Fatalf("Covered = %d", c.Covered())
	}
	for _, name := range c.Uncovered() {
		if name == EdgeL2FillShared.String() || name == EdgeHomeReadMissAllocS.String() {
			t.Fatalf("covered edge %q listed as uncovered", name)
		}
	}
}

func TestCoverageMerge(t *testing.T) {
	a, b := NewCoverage(), NewCoverage()
	a.Mark(EdgeL2FillShared)
	b.Mark(EdgeL2FillShared)
	b.Mark(EdgeCohToHWMerge)
	a.Merge(b)
	if a.Count(EdgeL2FillShared) != 2 || a.Count(EdgeCohToHWMerge) != 1 {
		t.Fatal("merge did not add counts")
	}
}

func TestCoverageReport(t *testing.T) {
	c := NewCoverage()
	c.Mark(EdgeHomeReadMissAllocS)
	rep := c.Report()
	if !strings.Contains(rep, "protocol edges covered: 1/") {
		t.Fatalf("summary line missing:\n%s", rep)
	}
	for _, g := range []string{"[msi]", "[dir]", "[l2]", "[coh]", "[rec]"} {
		if !strings.Contains(rep, g) {
			t.Fatalf("group header %s missing:\n%s", g, rep)
		}
	}
	if !strings.Contains(rep, "UNCOVERED") {
		t.Fatalf("uncovered marker missing:\n%s", rep)
	}
	if strings.Count(rep, "UNCOVERED") != EdgeCount-1 {
		t.Fatalf("wrong uncovered count:\n%s", rep)
	}
}
