package stats

import (
	"fmt"

	"cohesion/internal/trace"
)

// TraceEntry is one protocol event retained by the run's trace ring. It
// is the shared record type of internal/trace, so the post-mortem ring
// and the streaming sink render events identically (sim-time column
// included).
type TraceEntry = trace.Record

// Tracing reports whether any event consumer is attached; emitters use it
// to skip the Sprintf that renders an event's detail.
func (r *Run) Tracing() bool { return r.Trace != nil || r.Sink != nil }

// Emit hands a prepared record to every attached consumer.
func (r *Run) Emit(rec TraceEntry) {
	if r.Trace != nil {
		r.Trace.Add(rec)
	}
	if r.Sink != nil {
		r.Sink.Add(rec)
	}
}

// TraceEvent records a protocol event when tracing is enabled; it is a
// no-op (and avoids the Sprintf) otherwise.
func (r *Run) TraceEvent(cycle uint64, site, format string, args ...any) {
	if !r.Tracing() {
		return
	}
	r.Emit(TraceEntry{Cycle: cycle, Site: site, Event: fmt.Sprintf(format, args...)})
}

// Edge marks a protocol-transition edge as exercised when a coverage
// tracker is attached; nil-checked so the hot paths pay one branch.
func (r *Run) Edge(e trace.EdgeID) {
	if r.Coverage != nil {
		r.Coverage.Mark(e)
	}
}
