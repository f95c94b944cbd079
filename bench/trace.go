package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory for the traced pass. A nil *tracer (and
// the nil *span it returns) records nothing, so untraced passes run the
// same code with no spans.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

// span is one timed interval: a workload, an op, or a call into a layer.
// Start and End are offsets from the tracer's epoch. Lane is the Chrome
// trace thread the span is drawn on: 0 for serial work, one per client or
// worker goroutine otherwise.
type span struct {
	tr         *tracer
	ID, Parent int
	Name       string
	Lane       int
	Start, End time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil for a root).
func (t *tracer) start(parent *span, lane int, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{tr: t, ID: t.next, Name: name, Lane: lane, Start: time.Since(t.epoch)}
	t.mu.Unlock()
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// child opens a span under s on s's lane.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.start(s, s.Lane, name)
}

func (s *span) stop() {
	if s == nil {
		return
	}
	s.End = time.Since(s.tr.epoch)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, *s)
	s.tr.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its children cover. It fails if a child lies outside its
// parent or a parent was never stopped.
func selfTimes(spans []span) (map[int]time.Duration, error) {
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	kids := map[int][]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %q has no recorded parent", s.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %q [%v, %v] lies outside its parent %q [%v, %v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := map[int]time.Duration{}
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, end := time.Duration(0), s.Start
		for _, c := range cs {
			lo := max(c.Start, end)
			if c.End > lo {
				covered += c.End - lo
				end = c.End
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self, nil
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load. Each span's self time is in its args.
func writeChrome(path string, spans []span, self map[int]time.Duration) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	events := make([]event, len(sorted))
	for i, s := range sorted {
		events[i] = event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_ms": ms(self[s.ID])}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// lanes hands out Chrome trace lanes to concurrent goroutines so that no
// two spans drawn on one lane overlap.
type lanes chan int

func newLanes(n int) lanes {
	l := make(lanes, n)
	for i := 1; i <= n; i++ {
		l <- i
	}
	return l
}

func (l lanes) get() int  { return <-l }
func (l lanes) put(i int) { l <- i }
