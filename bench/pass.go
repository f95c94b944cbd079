package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"cohesion/internal/stats"
)

// workload is one of the benchmark's fixed workloads. run performs the
// set-up repetitions and the measured phase, recording into p; it returns
// an error only when the workload cannot run at all (a failed op is
// recorded and the run continues).
type workload interface {
	run(p *pass) error
}

// layered is implemented by workloads with extra per-layer measurements,
// taken after the traced pass.
type layered interface {
	layers(p *pass) error
}

// options are the settings shared by every pass of one process.
type options struct {
	seed    int64
	seconds time.Duration // measured phase; at least one round always runs
	work    string        // scratch directory for checkpoints and job state
}

// pass is one execution of a workload: its set-up repetitions and its
// measured phase. A traced run makes two passes of the same seed, one
// untraced and one traced.
type pass struct {
	options
	tr   *tracer // nil in an untraced pass
	root *span   // the workload span; every op span hangs off it

	epoch   time.Time // op start times and heap samples are offsets from it
	mu      sync.Mutex
	setups  []time.Duration
	ops     []op
	heap    []heapSample         // live heap through the measured phase
	samples map[string][]float64 // per-layer samples; the metric is their median
	values  map[string]float64   // per-layer metrics computed whole
	extra   int                  // failed checks outside the measured ops
}

// op is one timed operation of the measured phase.
type op struct {
	kind       string // op_ms takes the median per kind
	round      int
	index      int // position within the round, for order-independent folding
	start, dur time.Duration
	err        error
	c          counts
}

// heapSample is the live heap that the latest garbage collection left.
type heapSample struct {
	at   time.Duration
	live uint64
}

// counts are the exact model counts of one op, summed from whatever the
// public result exposes. A change to host code alone leaves them equal.
type counts struct {
	events, cycles, instructions, l2Messages, netMessages, netBytes uint64
	dramReads, dramWrites, dirEvictions, dirBroadcasts, probes      uint64
	toHW, toSW, nacks, l2Retries, oracleChecks                      uint64
	invIssued, invUseful, wbIssued, wbUseful                        uint64
	fp                                                              uint64 // digest of the op's output
}

// countNames are the count.* per-layer metrics, in counts field order.
var countNames = []string{
	"events", "sim_cycles", "instructions", "l2_messages", "net_messages", "net_bytes",
	"dram_reads", "dram_writes", "dir_evictions", "dir_broadcasts", "probes",
	"to_hw", "to_sw", "nacks", "l2_retries", "oracle_checks",
}

func (c *counts) fields() []*uint64 {
	return []*uint64{
		&c.events, &c.cycles, &c.instructions, &c.l2Messages, &c.netMessages, &c.netBytes,
		&c.dramReads, &c.dramWrites, &c.dirEvictions, &c.dirBroadcasts, &c.probes,
		&c.toHW, &c.toSW, &c.nacks, &c.l2Retries, &c.oracleChecks,
		&c.invIssued, &c.invUseful, &c.wbIssued, &c.wbUseful,
	}
}

func runCounts(s *stats.Run, fingerprint uint64) counts {
	return counts{
		events: s.Events, cycles: s.Cycles, instructions: s.Instructions,
		l2Messages: s.TotalMessages(), netMessages: s.NetMessages, netBytes: s.NetBytes,
		dramReads: s.DRAMReads, dramWrites: s.DRAMWrites,
		dirEvictions: s.DirEvictions, dirBroadcasts: s.DirBroadcasts, probes: s.ProbesSent,
		toHW: s.TransitionsToHW, toSW: s.TransitionsToSW, nacks: s.NacksSent, l2Retries: s.L2Retries,
		invIssued: s.InvIssued, invUseful: s.InvUseful, wbIssued: s.WBIssued, wbUseful: s.WBUseful,
		fp: fingerprint,
	}
}

func newPass(o options, tr *tracer) *pass {
	p := &pass{options: o, tr: tr, epoch: time.Now(), samples: map[string][]float64{}, values: map[string]float64{}}
	p.root = tr.start(nil, 0, "workload")
	return p
}

var ctx = context.Background()

// now is the time since the pass began, for op start times.
func (p *pass) now() time.Duration { return time.Since(p.epoch) }

func (p *pass) record(o op) {
	if o.err != nil {
		msg, _, _ := strings.Cut(o.err.Error(), "\n")
		fmt.Fprintf(os.Stderr, "bench: %s op %d of round %d failed: %s\n", o.kind, o.index, o.round, msg)
	}
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
}

func (p *pass) sample(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *pass) setValue(name string, v float64) {
	p.mu.Lock()
	p.values[name] = v
	p.mu.Unlock()
}

func (p *pass) failCheck() {
	p.mu.Lock()
	p.extra++
	p.mu.Unlock()
}

// setup times one repetition of the workload's set-up step.
func (p *pass) setup(fn func() error) error {
	s := p.tr.start(p.root, 0, "setup")
	t0 := time.Now()
	err := fn()
	p.setups = append(p.setups, time.Since(t0))
	s.stop()
	return err
}

// rounds runs a sequential workload's measured phase: an untimed warm-up
// round, then whole rounds until the phase has lasted p.seconds, and at
// least one.
func (p *pass) rounds(round func(r int)) {
	p.warmUp(func() { round(0) })
	p.measure(func() {
		start := time.Now()
		for r := 0; r == 0 || time.Since(start) < p.seconds; r++ {
			round(r)
		}
	})
}

// warmUp runs fn and drops what it recorded. A process's first round runs
// on a cold heap and is 5-10% slower; a user running many simulations in
// one process pays that once.
func (p *pass) warmUp(fn func()) {
	n := len(p.setups)
	fn()
	p.setups, p.ops, p.samples = p.setups[:n], nil, map[string][]float64{}
}

// measure runs the measured phase fn after a garbage collection, sampling
// the live heap every 5 ms while it runs.
func (p *pass) measure(fn func()) {
	runtime.GC()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.heap = append(p.heap, heapSample{p.now(), s[0].Value.Uint64()})
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	<-done
}

// timed runs fn in a span named name under parent and returns its wall time.
func timed(parent *span, name string, fn func()) time.Duration {
	s := parent.child(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.stop()
	return d
}

func (p *pass) attempted() int { return len(p.ops) }

func (p *pass) failed() int {
	n := p.extra
	for _, o := range p.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// opMs is the geometric mean, over op kinds, of each kind's median op
// latency in milliseconds. Taking the median per kind first keeps the
// metric independent of how many ops of each kind a run completed.
func (p *pass) opMs() float64 {
	byKind := map[string][]float64{}
	for _, o := range p.ops {
		byKind[o.kind] = append(byKind[o.kind], ms(o.dur))
	}
	if len(byKind) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range byKind {
		logSum += math.Log(median(v))
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// perRound returns, for each round, its throughput over the span from its
// first op's start to its last op's end, and the largest live heap
// sampled in that span (or left by the last collection before it).
func (p *pass) perRound() (rates, heaps []float64) {
	type window struct {
		lo, hi time.Duration
		n      int
	}
	var windows []window
	for _, o := range p.ops {
		for len(windows) <= o.round {
			windows = append(windows, window{lo: math.MaxInt64})
		}
		w := &windows[o.round]
		w.lo, w.hi, w.n = min(w.lo, o.start), max(w.hi, o.start+o.dur), w.n+1
	}
	for _, s := range windows {
		rates = append(rates, ratio(float64(s.n), (s.hi-s.lo).Seconds()))
		var peak uint64
		for _, h := range p.heap {
			if h.at > s.hi {
				break
			}
			if h.at <= s.lo {
				peak = h.live
			} else {
				peak = max(peak, h.live)
			}
		}
		heaps = append(heaps, float64(peak))
	}
	return rates, heaps
}

// opsPerSec is the median round's throughput.
func (p *pass) opsPerSec() float64 {
	rates, _ := p.perRound()
	return median(rates)
}

// events sums the simulated events of the measured ops.
func (p *pass) events() float64 {
	n := 0.0
	for _, o := range p.ops {
		n += float64(o.c.events)
	}
	return n
}

// roundCounts sums each round's op counts and folds the ops' output
// digests in index order, so the result does not depend on which op of a
// concurrent round finished first.
func (p *pass) roundCounts() []counts {
	ops := append([]op(nil), p.ops...)
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].round != ops[j].round {
			return ops[i].round < ops[j].round
		}
		return ops[i].index < ops[j].index
	})
	var out []counts
	for _, o := range ops {
		for len(out) <= o.round {
			out = append(out, counts{fp: fnvOffset})
		}
		r := &out[o.round]
		dst, src := r.fields(), o.c.fields()
		for i := range dst {
			*dst[i] += *src[i]
		}
		r.fp = (r.fp ^ o.c.fp) * fnvPrime
	}
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digest hashes a rendering of an op's output.
func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
