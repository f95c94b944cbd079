package stats

import (
	"strings"
	"testing"

	"cohesion/internal/trace"
)

func TestTraceEventNilSafe(t *testing.T) {
	var r Run
	r.TraceEvent(1, "x", "should be dropped %d", 1) // Trace is nil: no-op
	r.Trace = trace.NewSink(4)
	r.TraceEvent(2, "home0", "line %#x", 0x40)
	es := r.Trace.Records()
	if len(es) != 1 || es[0].Site != "home0" || !strings.Contains(es[0].Event, "0x40") {
		t.Fatalf("entries = %+v", es)
	}
	if es[0].String() == "" {
		t.Fatal("empty render")
	}
}
