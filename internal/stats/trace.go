package stats

import (
	"fmt"

	"cohesion/internal/trace"
)

// Tracing reports whether a trace ring is attached; emitters use it to
// skip the Sprintf that renders an event's detail.
func (r *Run) Tracing() bool { return r.Trace != nil }

// TraceEvent records a protocol event when tracing is enabled; it is a
// no-op (and avoids the Sprintf) otherwise.
func (r *Run) TraceEvent(cycle uint64, site, format string, args ...any) {
	if !r.Tracing() {
		return
	}
	r.Trace.Add(trace.Record{Cycle: cycle, Site: site, Event: fmt.Sprintf(format, args...)})
}

// Edge marks a protocol-transition edge as exercised when a coverage
// tracker is attached; nil-checked so the hot paths pay one branch.
func (r *Run) Edge(e trace.EdgeID) {
	if r.Coverage != nil {
		r.Coverage.Mark(e)
	}
}
