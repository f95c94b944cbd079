package stats

import (
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/trace"
)

// TestStepFeedsBothConsumers: one Step marks the coverage edge and appends
// one record, and with neither consumer attached it is a no-op.
func TestStepFeedsBothConsumers(t *testing.T) {
	var r Run
	r.Step(trace.EdgeL2FillShared, 1, "cl0", 4, 0) // nothing attached: no-op
	r.Coverage = trace.NewCoverage()
	r.Trace = trace.NewSink(4)
	r.Step(trace.EdgeHomeReadRelDealloc, 9, "home2", 4, -1)
	if n := r.Coverage.Count(trace.EdgeHomeReadRelDealloc); n != 1 {
		t.Fatalf("edge marked %d times, want 1", n)
	}
	want := trace.Record{Cycle: 9, Site: "home2", Event: "msi.readrel_dealloc",
		Line: uint64(addr.Line(4).Base()), Cluster: -1}
	if es := r.Trace.Records(); len(es) != 1 || es[0] != want {
		t.Fatalf("records = %+v, want [%+v]", es, want)
	}
}
