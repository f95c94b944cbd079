package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"cohesion"
	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/directory"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/interconnect"
	"cohesion/internal/linetab"
	"cohesion/internal/region"
)

// runTraced makes an untraced and then a traced pass of the same seed,
// checks that tracing left the simulation unchanged, and derives the
// per-layer metrics. It writes the Chrome trace, the CPU profile and the
// metrics under dir.
func runTraced(name string, w workload, o options, dir string) (result, error) {
	base := newPass(o, nil)
	if err := w.run(base); err != nil {
		return result{}, err
	}

	mkdir(dir)
	profile := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(profile)
	if err != nil {
		return result{}, err
	}
	tp := newPass(o, newTracer())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return result{}, err
	}
	err = w.run(tp)
	pprof.StopCPUProfile()
	tp.root.stop()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	if err := sameCounts(base, tp); err != nil {
		return result{}, err
	}
	if l, ok := w.(layered); ok {
		tp.root = tp.tr.start(nil, 0, "layers")
		err := l.layers(tp)
		tp.root.stop()
		if err != nil {
			return result{}, err
		}
	}

	self, err := selfTimes(tp.tr.spans)
	if err != nil {
		return result{}, err
	}
	if err := writeChrome(filepath.Join(dir, name+".trace.json"), tp.tr.spans, self); err != nil {
		return result{}, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return result{}, fmt.Errorf("go tool pprof: %w", err)
	}
	cpu, err := cpuShares(string(out))
	if err != nil {
		return result{}, err
	}
	res, err := newResult(base.attempted()+tp.attempted(), base.failed()+tp.failed(), perLayer,
		layerValues(base, tp, cpu, probeUnits()))
	if err != nil {
		return res, err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(dir, name+".metrics.json"), b, 0o644)
}

// sameCounts is the instrumentation-neutrality check: every round that
// both passes completed has identical model counts and output digests.
func sameCounts(untraced, traced *pass) error {
	a, b := untraced.roundCounts(), traced.roundCounts()
	for r := range min(len(a), len(b)) {
		if a[r] != b[r] {
			return fmt.Errorf("tracing changed the simulation: round %d counts %+v untraced, %+v traced", r, a[r], b[r])
		}
	}
	return nil
}

// layerValues gathers the per-layer metrics of a traced run. A layer the
// workload does not exercise reads 0. The model counts are round 0's, so
// they do not depend on how many rounds the host completed.
func layerValues(base, tp *pass, cpu, units map[string]float64) map[string]float64 {
	v := map[string]float64{}
	for _, s := range perLayer {
		v[s.name] = 0
	}
	for n, xs := range tp.samples {
		v[n] = median(xs)
	}
	for n, x := range tp.values {
		v[n] = x
	}
	if rc := tp.roundCounts(); len(rc) > 0 {
		c := rc[0]
		f := c.fields()
		for i, n := range countNames {
			v["count."+n] = float64(*f[i])
		}
		v["count.fingerprint"] = float64(uint32(c.fp ^ c.fp>>32))
		v["ratio.inv_useful"] = ratio(float64(c.invUseful), float64(c.invIssued))
		v["ratio.wb_useful"] = ratio(float64(c.wbUseful), float64(c.wbIssued))
	}
	v["trace.overhead_pct"] = 100 * (ratio(base.opsPerSec(), tp.opsPerSec()) - 1)
	for b, x := range cpu {
		v["cpu."+b+"_pct"] = x
	}
	for n, x := range units {
		v[n] = x
	}
	return v
}

// layerPkgs are the module's packages that get a cpu.<name>_pct metric of
// their own.
var layerPkgs = []string{"event", "cluster", "cache", "linetab", "region", "core", "directory",
	"interconnect", "dram", "machine", "rt", "kernels", "stats", "snapshot", "serve", "pool",
	"stress", "oracle", "fault"}

// cpuBuckets adds the root facade, the module's other packages, and
// samples with no frame of the module at all (runtime, GC, net/http).
var cpuBuckets = append(slices.Clone(layerPkgs), "cohesion", "other", "runtime")

// cpuShares attributes the CPU samples of `go tool pprof -traces` output
// to packages: each stack goes to its innermost frame from the cohesion
// module, so encoding/json work under internal/snapshot counts as
// snapshot. It returns each bucket's percentage of all samples.
func cpuShares(traces string) (map[string]float64, error) {
	byBucket := map[string]time.Duration{}
	var total time.Duration
	blocks := strings.Split(traces, "-----------+")
	for _, blk := range blocks[1:] {
		lines := strings.Split(blk, "\n")[1:] // [0] is the rest of the separator
		bucket, found := "runtime", false
		var d time.Duration
		for i, line := range lines {
			f := strings.Fields(line)
			if len(f) == 0 {
				continue
			}
			if d == 0 {
				var err error
				if d, err = time.ParseDuration(f[0]); err != nil {
					return nil, fmt.Errorf("pprof traces line %d of a stack: %q: %v", i, line, err)
				}
				f = f[1:]
			}
			if len(f) > 0 && !found {
				bucket, found = moduleBucket(f[0])
			}
		}
		byBucket[bucket] += d
		total += d
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof traces hold no samples")
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		shares[b] = 100 * float64(byBucket[b]) / float64(total)
	}
	return shares, nil
}

// moduleBucket maps a frame's function name to its cpu bucket, reporting
// false (and "runtime") for a frame outside the module.
func moduleBucket(fn string) (string, bool) {
	if strings.HasPrefix(fn, "cohesion.") {
		return "cohesion", true
	}
	rest, ok := strings.CutPrefix(fn, "cohesion/")
	if !ok {
		return "runtime", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if name := path.Base(rest); slices.Contains(layerPkgs, name) {
		return name, true
	}
	return "other", true
}

// unitProbes time single calls into the event-loop layers with
// testing.Benchmark, at the geometry of the sim workload's machine. They
// are costs per call, not a model: turning them into a share of wall
// time needs in-program call counts, which the simulator does not keep.
var unitProbes = []struct {
	name, unit string
	per        float64 // divides ns per benchmark op
	bench      func(cfg cohesion.MachineConfig) func(b *testing.B)
}{
	{"unit.event_after_step_ns", "ns", 1, func(cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			var q event.Queue
			for i := 0; i < 1024; i++ {
				q.After(event.Cycle(i%64), nop)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.After(event.Cycle(i%64), nop)
				q.Step()
			}
		}
	}},
	{"unit.linetab_get_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.L2Lines()
			var t linetab.Table[int32]
			for i := 0; i < n; i++ {
				t.Put(heapLine+addr.Line(i), int32(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink, _ = t.Get(heapLine + addr.Line(i%n))
			}
		}
	}},
	{"unit.linetab_put_delete_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.L2Lines()
			var t linetab.Table[int32]
			for i := 0; i < n; i++ {
				t.Put(heapLine+addr.Line(i), int32(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := heapLine + addr.Line(n+i%n)
				t.Put(l, 1)
				t.Delete(l)
			}
		}
	}},
	{"unit.cache_lookup_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.L2Lines()
			c := cache.New(cfg.L2Size, cfg.L2Assoc)
			for i := 0; i < n; i++ {
				c.Allocate(heapLine + addr.Line(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = c.Lookup(heapLine + addr.Line(i%n))
			}
		}
	}},
	{"unit.cache_allocate_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.L2Lines()
			c := cache.New(cfg.L2Size, cfg.L2Assoc)
			for i := 0; i < n; i++ {
				c.Allocate(heapLine + addr.Line(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink, _, _ = c.Allocate(heapLine + addr.Line(n+i)) // every allocation evicts
			}
		}
	}},
	{"unit.directory_lookup_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.DirEntriesPerBank / 2
			d := directory.NewSparse(cfg.DirEntriesPerBank, cfg.DirAssoc, false)
			for i := 0; i < n; i++ {
				d.Allocate(heapLine + addr.Line(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = d.Lookup(heapLine + addr.Line(i%n))
			}
		}
	}},
	{"unit.directory_allocate_remove_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.DirEntriesPerBank / 2
			d := directory.NewSparse(cfg.DirEntriesPerBank, cfg.DirAssoc, false)
			for i := 0; i < n; i++ {
				d.Allocate(heapLine + addr.Line(i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := heapLine + addr.Line(n+i%n)
				d.Allocate(l)
				d.Remove(l)
			}
		}
	}},
	{"unit.region_is_swcc_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			const lines = 1 << 16
			t := region.NewFineTable(dram.NewStore(), cfg.L3Banks)
			t.SetRange(addr.Range{Base: addr.CohHeapBase, Size: lines / 2 * addr.LineBytes})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = t.IsSWcc(addr.CohHeapBase + addr.Addr(i%lines)*addr.LineBytes)
			}
		}
	}},
	{"unit.interconnect_to_bank_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			var q event.Queue
			n := interconnect.New(&q, cfg.Clusters, cfg.L3Banks, cfg.TreeLatency, cfg.XbarLatency)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.ToBank(i%cfg.Clusters, i%cfg.L3Banks, 8, nop)
				q.Step() // the delivery event
			}
		}
	}},
	{"unit.dram_merge_line_ns", "ns", 1, func(cfg cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			n := cfg.L2Lines()
			s := dram.NewStore()
			var data [addr.WordsPerLine]uint32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data[i%addr.WordsPerLine] = uint32(i)
				s.MergeLine(heapLine+addr.Line(i%n), 0xff, data)
			}
		}
	}},
	{"unit.dram_fingerprint_ns_per_line", "ns/line", fingerprintLines, func(cohesion.MachineConfig) func(*testing.B) {
		return func(b *testing.B) {
			s := dram.NewStore()
			var data [addr.WordsPerLine]uint32
			for i := 0; i < fingerprintLines; i++ {
				data[0] = uint32(i)
				s.MergeLine(heapLine+addr.Line(i), 0xff, data)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = s.Fingerprint()
			}
		}
	}},
}

const fingerprintLines = 1 << 14

var (
	heapLine = addr.LineOf(addr.HeapBase)
	nop      = func() {}
	sink     any // keeps probed results alive
)

// probeUnits runs every unit probe for size.benchtime each.
func probeUnits() map[string]float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", size.benchtime); err != nil {
		panic(err) // benchtime is a constant of the benchmark
	}
	cfg := cohesion.ScaledConfig(size.simClusters)
	out := map[string]float64{}
	for _, u := range unitProbes {
		r := testing.Benchmark(u.bench(cfg))
		out[u.name] = ratio(float64(r.T), float64(r.N)*u.per)
	}
	return out
}
