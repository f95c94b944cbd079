package stats

import (
	"cohesion/internal/addr"
	"cohesion/internal/trace"
)

// Step records one protocol step: edge e fired at cycle on site, touching
// line on behalf of cluster (-1 for none). Coverage and the trace ring are
// its two consumers; with neither attached it does nothing. It is the one
// way a component records a step: the cluster's and home's hot paths call
// it through helpers that inline the nil checks, so a bare run pays one
// branch per step and the record is built out of line.
func (r *Run) Step(e trace.EdgeID, cycle uint64, site string, line addr.Line, cluster int) {
	if r.Coverage != nil {
		r.Coverage.Mark(e)
	}
	if r.Trace != nil {
		r.Trace.Add(trace.Record{Cycle: cycle, Site: site, Event: e.String(),
			Line: uint64(line.Base()), Cluster: int32(cluster)})
	}
}
