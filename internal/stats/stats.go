// Package stats collects the measurements the paper's evaluation reports:
// L2-output message counts by class (Figs 2, 8), SWcc coherence-instruction
// efficiency (Fig 3), directory occupancy over time with an address-class
// breakdown (Fig 9c), and end-to-end run time (Figs 9a/9b, 10).
package stats

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"cohesion/internal/addr"
	"cohesion/internal/msg"
	"cohesion/internal/trace"
)

// Run accumulates every measurement for one simulation: the cumulative
// Counters, plus the live instruments a process attaches to them.
type Run struct {
	Counters

	// Trace, when non-nil, is the run's one protocol trace ring, attached
	// by the caller that reads it (cohesion.RunConfig.TraceSink,
	// stress.RunOpts.Sink): for export, deadlock diagnostics (which print
	// its tail) and fuzz repros.
	Trace *trace.Sink

	// Coverage, when non-nil, marks protocol-transition edges as they
	// fire. It may be shared by many simulations (marks are atomic) to
	// aggregate coverage across a test or fuzz batch.
	Coverage *trace.Coverage

	// Metrics, when non-nil, collects sim-time histograms (message
	// latency by class, port waits, queue depths, directory occupancy).
	Metrics *Metrics

	// Resumes counts core program coroutine resumes: host work, not a
	// simulated quantity, so it stays out of Counters (and with it out of
	// Digest, checkpoints and sweep cells). It is exact for a given spec.
	Resumes uint64
}

// Counters holds every cumulative counter of a run: what Digest hashes
// for a checkpoint's stats layer, what a sweep checkpoint persists per
// cell and what a divergence dump records. The JSON tags and field order
// fix the digest, so a new counter is added here and nowhere else.
type Counters struct {
	// Messages counts L2-output messages by class (the Figs 2/8 stack).
	Messages [msg.NumKinds]uint64 `json:"messages"`

	// ProbesSent counts directory-to-L2 probe messages (invalidations,
	// writeback requests, and SW-to-HW clean-capture broadcasts). Not part
	// of the figures' stacks, but reported for network-load analysis.
	ProbesSent uint64 `json:"probes_sent"`

	// SWcc coherence-instruction efficiency (Fig 3). "Useful" operations
	// found the target line valid in the L2.
	InvIssued uint64 `json:"inv_issued,omitempty"`
	InvUseful uint64 `json:"inv_useful,omitempty"`
	WBIssued  uint64 `json:"wb_issued,omitempty"`
	WBUseful  uint64 `json:"wb_useful,omitempty"`

	// Cohesion domain transitions performed by the directory.
	TransitionsToSW uint64 `json:"transitions_to_sw,omitempty"`
	TransitionsToHW uint64 `json:"transitions_to_hw,omitempty"`

	// Directory behaviour.
	DirEvictions  uint64 `json:"dir_evictions,omitempty"`  // entries evicted for capacity (sparse/limited)
	DirBroadcasts uint64 `json:"dir_broadcasts,omitempty"` // Dir4B overflow broadcasts

	// OverlapRaces counts SW-to-HW captures that found the same word dirty
	// in more than one L2 — the paper's Figure 7 Case 5b software race.
	OverlapRaces uint64 `json:"overlap_races,omitempty"`

	// Fault injection (counts of injected events; see internal/fault).
	FaultDrops  uint64 `json:"fault_drops,omitempty"`  // requests dropped in flight
	FaultDups   uint64 `json:"fault_dups,omitempty"`   // requests delivered twice
	FaultDelays uint64 `json:"fault_delays,omitempty"` // link traversals given a delay spike
	NacksSent   uint64 `json:"nacks_sent,omitempty"`   // allocation NACKs sent by home banks (injected + capacity)

	// Protocol recovery (the requester/home side of the resilience layer).
	L2Retries      uint64 `json:"l2_retries,omitempty"`      // timeout-driven retransmissions
	NackRetries    uint64 `json:"nack_retries,omitempty"`    // retransmissions after a directory NACK
	StaleResponses uint64 `json:"stale_responses,omitempty"` // responses discarded for already-settled transactions
	DupsDropped    uint64 `json:"dups_dropped,omitempty"`    // duplicate request deliveries dropped by home dedup

	// ForwardProgress counts completed core operations plus home-side
	// transaction grants; the machine's watchdog declares deadlock when it
	// stops advancing while cores are still active.
	ForwardProgress uint64 `json:"forward_progress"`

	// DRAM line transfers.
	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`

	// Core activity.
	Instructions uint64 `json:"instructions"` // memory + coherence instructions executed
	Cycles       uint64 `json:"cycles"`       // simulated run time

	// Events counts discrete events executed by the simulation's event
	// queue (filled in by the machine at the end of a run). Events per
	// wall-clock second is the simulator's throughput metric; the
	// benchmark (bench/) reports its inverse as cohesion.ns_per_event.
	Events uint64 `json:"events"`

	// Network load (filled in by the machine at the end of a run).
	NetMessages uint64 `json:"net_messages"`
	NetBytes    uint64 `json:"net_bytes"`

	// Occupancy samples the allocated-directory-entry count every
	// SamplePeriod cycles (Fig 9c).
	Occupancy OccupancySampler `json:"occupancy"`

	// PhaseMarks records each global barrier release: the cycle it
	// happened and the cumulative message count at that point, giving a
	// per-phase traffic breakdown for bulk-synchronous workloads.
	PhaseMarks []PhaseMark `json:"phases,omitempty"`

	// Timeline samples cumulative traffic alongside the occupancy sampler
	// (every SamplePeriod cycles), for traffic-over-time plots.
	Timeline []TimelineSample `json:"timeline,omitempty"`
}

// Digest hashes every counter, giving the checkpoint layer a cheap
// equality probe for the stats layer. JSON field order is fixed by the
// Counters struct, so the digest is deterministic.
func (r *Run) Digest() uint64 {
	b, err := json.Marshal(&r.Counters)
	if err != nil {
		// Counters holds only integers and fixed structs; Marshal cannot
		// fail. Keep a defensive distinct value anyway.
		return ^uint64(0)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// PhaseMark is one barrier release.
type PhaseMark struct {
	Cycle    uint64
	Messages uint64
}

// MarkPhase appends a barrier-release mark (bounded against runaway
// phase counts).
func (r *Run) MarkPhase(cycle uint64) {
	if len(r.PhaseMarks) < 1<<16 {
		r.PhaseMarks = append(r.PhaseMarks, PhaseMark{Cycle: cycle, Messages: r.TotalMessages()})
	}
}

// TimelineSample is one periodic traffic observation.
type TimelineSample struct {
	Cycle      uint64
	Messages   uint64 // cumulative L2-output messages
	Probes     uint64 // cumulative directory probes
	DirEntries uint64 // currently allocated directory entries
}

// SamplePeriod is the directory-occupancy sampling interval in cycles
// (the paper samples every 1000 cycles).
const SamplePeriod = 1000

// CountMessage records one L2-output message of class k.
func (r *Run) CountMessage(k msg.Kind) { r.Messages[k]++ }

// TotalMessages sums the L2-output message classes.
func (r *Run) TotalMessages() uint64 {
	var t uint64
	for _, n := range r.Messages {
		t += n
	}
	return t
}

// OccupancySampler tracks time-averaged and maximum directory occupancy,
// broken down by address class (code / heap+global / stack).
type OccupancySampler struct {
	Count    uint64                  `json:"samples"`
	SumTotal uint64                  `json:"sum_total"`
	SumClass [addr.NumClasses]uint64 `json:"sum_class"`
	Peak     uint64                  `json:"max_total"`
}

// Sample records one observation of the current per-class entry counts.
func (o *OccupancySampler) Sample(byClass [addr.NumClasses]uint64) {
	o.Count++
	var total uint64
	for c, n := range byClass {
		o.SumClass[c] += n
		total += n
	}
	o.SumTotal += total
	if total > o.Peak {
		o.Peak = total
	}
}

// Samples reports the number of observations taken.
func (o *OccupancySampler) Samples() uint64 { return o.Count }

// MeanTotal returns the time-averaged total number of allocated entries.
func (o *OccupancySampler) MeanTotal() float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.SumTotal) / float64(o.Count)
}

// MeanClass returns the time-averaged entry count for one address class.
func (o *OccupancySampler) MeanClass(c addr.Class) float64 {
	if o.Count == 0 {
		return 0
	}
	return float64(o.SumClass[c]) / float64(o.Count)
}

// MaxTotal returns the maximum observed total entry count.
func (o *OccupancySampler) MaxTotal() uint64 { return o.Peak }

// UsefulInvFraction returns the Fig-3 "useful invalidations" ratio.
func (r *Run) UsefulInvFraction() float64 { return frac(r.InvUseful, r.InvIssued) }

// UsefulWBFraction returns the Fig-3 "useful writebacks" ratio.
func (r *Run) UsefulWBFraction() float64 { return frac(r.WBUseful, r.WBIssued) }

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders a compact human-readable report.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instructions=%d messages=%d\n", r.Cycles, r.Instructions, r.TotalMessages())
	for _, k := range msg.Kinds() {
		if r.Messages[k] > 0 {
			fmt.Fprintf(&b, "  %-28s %d\n", k.String(), r.Messages[k])
		}
	}
	if r.ProbesSent > 0 {
		fmt.Fprintf(&b, "  %-28s %d\n", "Probes (dir->L2)", r.ProbesSent)
	}
	if r.InvIssued+r.WBIssued > 0 {
		fmt.Fprintf(&b, "  swcc inv useful %.3f (%d/%d) wb useful %.3f (%d/%d)\n",
			r.UsefulInvFraction(), r.InvUseful, r.InvIssued,
			r.UsefulWBFraction(), r.WBUseful, r.WBIssued)
	}
	if r.TransitionsToHW+r.TransitionsToSW > 0 {
		fmt.Fprintf(&b, "  transitions toHW=%d toSW=%d\n", r.TransitionsToHW, r.TransitionsToSW)
	}
	if r.Occupancy.Samples() > 0 {
		fmt.Fprintf(&b, "  directory mean=%.1f max=%d entries\n", r.Occupancy.MeanTotal(), r.Occupancy.MaxTotal())
	}
	if r.FaultDrops+r.FaultDups+r.FaultDelays+r.NacksSent > 0 {
		fmt.Fprintf(&b, "  faults injected: drops=%d dups=%d delays=%d nacks=%d\n",
			r.FaultDrops, r.FaultDups, r.FaultDelays, r.NacksSent)
	}
	if r.L2Retries+r.NackRetries+r.StaleResponses+r.DupsDropped > 0 {
		fmt.Fprintf(&b, "  recovery: retries=%d nack-retries=%d stale-resp=%d dup-dropped=%d\n",
			r.L2Retries, r.NackRetries, r.StaleResponses, r.DupsDropped)
	}
	return b.String()
}

// Table renders rows of label/value pairs aligned in columns; used by the
// experiment harness for figure output.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Sort orders rows lexicographically by the first column.
func (t *Table) Sort() {
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i][0] < t.Rows[j][0] })
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
