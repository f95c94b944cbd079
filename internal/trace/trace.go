// Package trace is the simulator's structured observability layer: one
// shared Record type for protocol steps, a bounded Sink ring that
// retains them (a run's one trace ring, stats.Run.Trace, is a Sink) and
// exports them as Chrome trace-event JSON or plain text, and a
// protocol-transition Coverage tracker (coverage.go) that turns "did we
// actually exercise the protocol?" into an asserted property.
//
// The package sits below internal/stats in the import graph and depends
// only on the standard library, so every component that already holds a
// *stats.Run can reach it without cycles.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Record is one protocol step. Event names it: a catalog edge name
// (EdgeID.String) for a step, the request kind for a transaction span
// endpoint. Site names the emitting component ("home3", "cl0", "net"),
// Line is the base address of the line the step touched, and Cluster the
// cluster involved (-1 for none). ID and Phase are set only on span
// endpoints: Phase 'b' opens an async span when the L2 issues a request,
// 'e' closes it when the grant installs, and both carry the transaction ID
// so a viewer pairs them. Every field is a number or a constant string, so
// recording a step formats nothing; only the exporters do.
type Record struct {
	Cycle   uint64 `json:"cycle"`
	Site    string `json:"site"`
	Event   string `json:"event"`
	Line    uint64 `json:"line"`
	ID      uint64 `json:"id,omitempty"`
	Cluster int32  `json:"cluster"`
	Phase   byte   `json:"ph,omitempty"`
}

// String renders the record as one aligned line of text; a span endpoint
// adds its transaction ID and phase.
func (r Record) String() string {
	s := fmt.Sprintf("%10d %-8s %s line=%#x cl=%d", r.Cycle, r.Site, r.Event, r.Line, r.Cluster)
	if r.Phase != 0 {
		s += fmt.Sprintf(" txn=%#x %c", r.ID, r.Phase)
	}
	return s
}

// Sink is a bounded ring of Records fed by every traced component of one
// machine. When full the oldest records are overwritten, so after a run
// it holds the tail of the protocol history; Dropped reports how much of
// the head was lost. A Sink belongs to one simulation and is not
// goroutine-safe (the event loop is single-threaded).
type Sink struct {
	cap     int
	records []Record
	next    int
	total   uint64

	// With onlyLine set, Add keeps only the records whose Line is line.
	onlyLine bool
	line     uint64
}

// DefaultSinkCapacity bounds a sink when the caller does not choose one:
// large enough to hold every event of a small run, small enough that an
// instrumented sweep does not exhaust memory.
const DefaultSinkCapacity = 1 << 20

// TailRecords is how much of a trace the post-mortem reports keep: the
// records a deadlock diagnostic prints and a fuzz repro file carries.
const TailRecords = 256

// NewSink builds a ring retaining up to capacity records (<=0 selects
// DefaultSinkCapacity).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultSinkCapacity
	}
	return &Sink{cap: capacity}
}

// OnlyLine makes s keep only the records of one line from now on: those
// whose Line is base, the line's base address. The others are not added
// and not counted, so the rest of a long run cannot push that line's
// history out of the ring.
func (s *Sink) OnlyLine(base uint64) { s.onlyLine, s.line = true, base }

// Add appends a record, evicting the oldest when full.
func (s *Sink) Add(r Record) {
	if s.onlyLine && r.Line != s.line {
		return
	}
	s.total++
	if len(s.records) < s.cap {
		s.records = append(s.records, r)
		return
	}
	s.records[s.next] = r
	s.next = (s.next + 1) % s.cap
}

// Total reports how many records were ever added.
func (s *Sink) Total() uint64 { return s.total }

// Dropped reports how many records were evicted from the ring.
func (s *Sink) Dropped() uint64 { return s.total - uint64(len(s.records)) }

// Records returns the retained records, oldest first.
func (s *Sink) Records() []Record { return s.Tail(len(s.records)) }

// Tail returns the last n retained records (all of them if fewer are
// retained), oldest first.
func (s *Sink) Tail(n int) []Record {
	held := len(s.records)
	if n > held {
		n = held
	}
	out := make([]Record, n)
	if n > 0 {
		k := copy(out, s.records[(s.next+held-n)%held:])
		copy(out[k:], s.records[:s.next])
	}
	return out
}

// WriteText writes the retained records as aligned text, one per line.
func (s *Sink) WriteText(w io.Writer) error { return s.WriteTail(w, len(s.records)) }

// WriteTail writes the last n retained records as WriteText does, after a
// line counting the earlier records it leaves out.
func (s *Sink) WriteTail(w io.Writer, n int) error {
	tail := s.Tail(n)
	if d := s.total - uint64(len(tail)); d > 0 {
		if _, err := fmt.Fprintf(w, "... %d earlier records dropped ...\n", d); err != nil {
			return err
		}
	}
	for _, r := range tail {
		if _, err := io.WriteString(w, r.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile exports the retained records to path: Chrome trace-event
// JSON when the path ends in .json, aligned text otherwise.
func (s *Sink) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = s.WriteChromeJSON(f)
	} else {
		err = s.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeJSON writes the retained records in Chrome's trace-event
// JSON format (about://tracing and Perfetto both load it). One timeline
// thread per emitting site; timestamps are simulation cycles interpreted
// as microseconds. Step records become thread-scoped instant events named
// by their edge, with the line and cluster as args; span endpoints (Phase
// 'b'/'e') become async begin/end pairs named "txn" and keyed by
// transaction ID, so each outstanding L2 transaction renders as a span
// from issue to install.
func (s *Sink) WriteChromeJSON(w io.Writer) error {
	records := s.Records()

	// Deterministic site -> tid mapping, sorted so repeated exports of the
	// same run are byte-identical.
	sites := make([]string, 0, 8)
	seen := make(map[string]int)
	for _, r := range records {
		if _, ok := seen[r.Site]; !ok {
			seen[r.Site] = 0
			sites = append(sites, r.Site)
		}
	}
	sort.Strings(sites)
	for i, site := range sites {
		seen[site] = i
	}

	events := make([]chromeEvent, 0, len(records)+len(sites))
	for i, site := range sites {
		events = append(events, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   i,
			Args:  map[string]any{"name": site},
		})
	}
	for _, r := range records {
		ev := chromeEvent{
			Name: r.Event,
			Cat:  "protocol",
			TS:   r.Cycle,
			PID:  0,
			TID:  seen[r.Site],
			Args: map[string]any{"line": fmt.Sprintf("%#x", r.Line), "cluster": r.Cluster},
		}
		switch r.Phase {
		case 'b', 'e':
			ev.Phase = string(rune(r.Phase))
			ev.Cat = "txn"
			ev.Name = "txn"
			ev.ID = fmt.Sprintf("%#x", r.ID)
			ev.Args["kind"] = r.Event
		default:
			ev.Phase = "i"
			ev.Scope = "t"
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ns",
		"traceEvents":     events,
	})
}
