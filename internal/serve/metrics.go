package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"cohesion/internal/stats"
)

// Metrics is the server's serving-side instrumentation: admission
// counters, terminal-state counts, cumulative simulated work, and a
// per-kernel wall-latency histogram (stats.Histogram, exposed through
// its Prometheus writer). Sim-time metrics stay where they were — in
// each run's stats.Metrics; this registry measures the service itself.
type Metrics struct {
	mu             sync.Mutex
	submittedTotal uint64
	rejectedTotal  uint64
	resumedTotal   uint64
	byState        map[State]uint64
	simEvents      uint64
	simCycles      uint64
	latencyMS      map[string]*stats.Histogram // by kernel
}

func newMetrics() *Metrics {
	return &Metrics{byState: map[State]uint64{}, latencyMS: map[string]*stats.Histogram{}}
}

func (m *Metrics) submitted() {
	m.mu.Lock()
	m.submittedTotal++
	m.mu.Unlock()
}

func (m *Metrics) rejected() {
	m.mu.Lock()
	m.rejectedTotal++
	m.mu.Unlock()
}

func (m *Metrics) resumed() {
	m.mu.Lock()
	m.resumedTotal++
	m.mu.Unlock()
}

// recovered accounts for jobs loaded from a previous process's state
// dir: terminal ones keep their terminal counts; unfinished ones count
// as submissions again (they will run in this process).
func (m *Metrics) recovered(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submittedTotal++
	if j.State.Terminal() {
		m.byState[j.State]++
	}
}

// finished records one job reaching a terminal state.
func (m *Metrics) finished(v JobView) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byState[v.State]++
	if v.Outcome != nil {
		m.simEvents += v.Outcome.Events
		m.simCycles += v.Outcome.Cycles
	}
	if v.StartedMS > 0 && v.EndedMS >= v.StartedMS {
		h := m.latencyMS[v.Spec.Kernel]
		if h == nil {
			h = &stats.Histogram{}
			m.latencyMS[v.Spec.Kernel] = h
		}
		h.Observe(uint64(v.EndedMS - v.StartedMS))
	}
}

// WriteProm renders the whole registry in Prometheus text exposition
// format. The queue gauges are passed in by the server so m.mu stays a
// leaf lock (the server takes it under its own lock).
func (m *Metrics) WriteProm(w io.Writer, queueDepth, queueCap, inflight, workers int, uptime time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE cohesion_serve_queue_depth gauge\n")
	fmt.Fprintf(w, "cohesion_serve_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "cohesion_serve_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "cohesion_serve_inflight %d\n", inflight)
	fmt.Fprintf(w, "cohesion_serve_workers %d\n", workers)
	fmt.Fprintf(w, "cohesion_serve_uptime_seconds %.3f\n", uptime.Seconds())

	fmt.Fprintf(w, "# TYPE cohesion_serve_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "cohesion_serve_jobs_submitted_total %d\n", m.submittedTotal)
	fmt.Fprintf(w, "cohesion_serve_jobs_rejected_total %d\n", m.rejectedTotal)
	fmt.Fprintf(w, "cohesion_serve_jobs_resumed_total %d\n", m.resumedTotal)

	fmt.Fprintf(w, "# TYPE cohesion_serve_jobs_total counter\n")
	for _, st := range []State{StateDone, StateCanceled, StateFailed} {
		fmt.Fprintf(w, "cohesion_serve_jobs_total{state=%q} %d\n", string(st), m.byState[st])
	}

	fmt.Fprintf(w, "# TYPE cohesion_serve_sim_events_total counter\n")
	fmt.Fprintf(w, "cohesion_serve_sim_events_total %d\n", m.simEvents)
	fmt.Fprintf(w, "cohesion_serve_sim_cycles_total %d\n", m.simCycles)
	if secs := uptime.Seconds(); secs > 0 {
		fmt.Fprintf(w, "cohesion_serve_sim_events_per_second %.1f\n", float64(m.simEvents)/secs)
	}

	kernels := make([]string, 0, len(m.latencyMS))
	for k := range m.latencyMS {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	if len(kernels) > 0 {
		fmt.Fprintf(w, "# TYPE cohesion_serve_job_latency_ms histogram\n")
	}
	for _, k := range kernels {
		m.latencyMS[k].WriteProm(w, "cohesion_serve_job_latency_ms", fmt.Sprintf("kernel=%q", k))
	}
}
