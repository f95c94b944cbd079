package stats

import (
	"fmt"
	"math/bits"

	"cohesion/internal/msg"
)

// histBuckets is the bucket count of a log2 histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. bucket 0 is exactly 0 and
// bucket i>0 covers [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a power-of-two-bucketed histogram of sim-time (or count)
// observations. Fixed-size and allocation-free so one can live inline in
// every metric slot.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(v)]++
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1): the top
// of the first bucket whose cumulative count reaches q*Count, clamped to
// the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(float64(q * float64(h.Count))) // no fused multiply-add (see internal/kernels)
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			if i == 0 {
				return 0
			}
			top := uint64(1)<<uint(i) - 1
			if top > h.Max {
				top = h.Max
			}
			return top
		}
	}
	return h.Max
}

// HistSummary is a histogram's exportable digest (the -json outputs).
type HistSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// Summarize digests the histogram.
func (h *Histogram) Summarize() HistSummary {
	return HistSummary{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		Max:   h.Max,
	}
}

// Metrics is the per-run metrics registry: sim-time histograms sampled at
// the protocol's natural observation points. Attached to a Run only on
// request (cohesion.RunConfig.Metrics); every observation site is
// nil-checked so disabled runs pay one branch.
type Metrics struct {
	// MsgLatency is the issue-to-settle latency of L2 transactions by
	// their L2-output message class (ReadReq, WriteReq, InstrReq from the
	// miss path; Atomic from the uncached path; SWFlush from flushes).
	MsgLatency [msg.NumKinds]Histogram

	// HomePortWait and L2PortWait are cycles a message waited for the
	// single L3-bank / L2 port beyond its pipeline latency.
	HomePortWait Histogram
	L2PortWait   Histogram

	// HomeQueueDepth samples, at each enqueue, how many requests were
	// already waiting on the target line's transaction slot.
	HomeQueueDepth Histogram

	// DirOccupancy samples total allocated directory entries alongside
	// the occupancy sampler (every SamplePeriod cycles).
	DirOccupancy Histogram

	// TxnRetries is the per-settled-transaction count of retransmissions
	// (NACK backoffs plus timeout retries).
	TxnRetries Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// MetricsExport is the JSON shape of a metrics registry.
type MetricsExport struct {
	MsgLatency     map[string]HistSummary `json:"msg_latency"`
	HomePortWait   HistSummary            `json:"home_port_wait"`
	L2PortWait     HistSummary            `json:"l2_port_wait"`
	HomeQueueDepth HistSummary            `json:"home_queue_depth"`
	DirOccupancy   HistSummary            `json:"dir_occupancy"`
	TxnRetries     HistSummary            `json:"txn_retries"`
}

// Export digests every histogram for JSON output. Empty message classes
// are omitted.
func (m *Metrics) Export() MetricsExport {
	out := MetricsExport{
		MsgLatency:     map[string]HistSummary{},
		HomePortWait:   m.HomePortWait.Summarize(),
		L2PortWait:     m.L2PortWait.Summarize(),
		HomeQueueDepth: m.HomeQueueDepth.Summarize(),
		DirOccupancy:   m.DirOccupancy.Summarize(),
		TxnRetries:     m.TxnRetries.Summarize(),
	}
	for _, k := range msg.Kinds() {
		if m.MsgLatency[k].Count > 0 {
			out.MsgLatency[k.String()] = m.MsgLatency[k].Summarize()
		}
	}
	return out
}

// Summary renders the registry as an aligned table for text output.
func (m *Metrics) Summary() *Table {
	t := &Table{Header: []string{"metric", "count", "mean", "p50", "p90", "p99", "max"}}
	row := func(name string, h *Histogram) {
		if h.Count == 0 {
			return
		}
		s := h.Summarize()
		t.Add(name,
			fmt.Sprintf("%d", s.Count), fmt.Sprintf("%.1f", s.Mean),
			fmt.Sprintf("%d", s.P50), fmt.Sprintf("%d", s.P90),
			fmt.Sprintf("%d", s.P99), fmt.Sprintf("%d", s.Max))
	}
	for _, k := range msg.Kinds() {
		row("latency: "+k.String(), &m.MsgLatency[k])
	}
	row("home port wait", &m.HomePortWait)
	row("l2 port wait", &m.L2PortWait)
	row("home queue depth", &m.HomeQueueDepth)
	row("dir occupancy", &m.DirOccupancy)
	row("txn retries", &m.TxnRetries)
	return t
}
