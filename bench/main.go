// Command bench is the repository benchmark. It runs one of five fixed
// workloads against the simulator's public surfaces (the cohesion facade,
// the job service over HTTP, the stress fuzzer and checkpoint resume),
// checks every output, and prints its metrics as one JSON object on the
// last line of standard output. See README.md for the workloads and the
// metric definitions.
//
// From the repository root:
//
//	bash bench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all        # every workload, each in a child process
//	bash bench/run.sh --workload serve --trace 1
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 the workload runs twice, untraced and then traced
// (spans around every call into a layer, plus a CPU profile); the result
// holds the per-layer metrics, and the Chrome trace, the profile and the
// metrics are written under .bench_build/trace/.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir holds everything a run writes, relative to the working directory
// (the repository root under run.sh); .gitignore lists it.
const outDir = ".bench_build"

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"sim", "figs", "serve", "fuzz", "resume"}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "sim":
		return simWL{}, true
	case "figs":
		return figsWL{}, true
	case "serve":
		return &serveWL{}, true
	case "fuzz":
		return fuzzWL{}, true
	case "resume":
		return &resumeWL{}, true
	}
	return nil, false
}

// metricSpec names one reported metric. The two tables below are the
// benchmark's contract and must equal BENCHMARK.json (bench_test.go
// checks that).
type metricSpec struct {
	name, unit, better string
}

var endToEnd = []metricSpec{
	{"op_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"cohesion.prepare_ms", "ms", "lower"},
		{"cohesion.simulate_ms", "ms", "lower"},
		{"cohesion.finalize_ms", "ms", "lower"},
		{"cohesion.simulate_pct", "%", "lower"},
		{"cohesion.ns_per_event", "ns/event", "lower"},
	}
	for _, f := range figCalls {
		specs = append(specs, metricSpec{"figs." + f.name + "_s", "s", "lower"})
	}
	specs = append(specs,
		metricSpec{"serve.submit_ms", "ms", "lower"},
		metricSpec{"serve.queue_ms", "ms", "lower"},
		metricSpec{"serve.run_ms", "ms", "lower"},
		metricSpec{"serve.bare_run_ms", "ms", "lower"},
		metricSpec{"serve.ckpt_share", "ratio", "lower"},
		metricSpec{"snapshot.write_ms", "ms", "lower"},
		metricSpec{"snapshot.load_ms", "ms", "lower"},
		metricSpec{"snapshot.mb", "MiB", "lower"},
		metricSpec{"resume.resume_ms", "ms", "lower"},
		metricSpec{"resume.straight_ms", "ms", "lower"},
		metricSpec{"resume.overhead_pct", "%", "lower"},
		metricSpec{"stress.generate_ms", "ms", "lower"},
		metricSpec{"stress.run_ms", "ms", "lower"},
		metricSpec{"stress.run_faults_ms", "ms", "lower"},
		metricSpec{"trace.overhead_pct", "%", "lower"},
	)
	for _, b := range cpuBuckets {
		specs = append(specs, metricSpec{"cpu." + b + "_pct", "%", "lower"})
	}
	for _, c := range countNames {
		specs = append(specs, metricSpec{"count." + c, "count", "lower"})
	}
	specs = append(specs,
		metricSpec{"count.fingerprint", "hash32", "lower"},
		metricSpec{"ratio.inv_useful", "ratio", "higher"},
		metricSpec{"ratio.wb_useful", "ratio", "higher"},
	)
	for _, u := range unitProbes {
		specs = append(specs, metricSpec{u.name, u.unit, "lower"})
	}
	return specs
}()

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", all, or a comma-separated list (more than one runs each in a child process)")
	seed := flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --workload NAME --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	names := strings.Split(*name, ",")
	if *name == "all" {
		names = workloadNames
	}
	if len(names) > 1 {
		os.Exit(runChildren(names, *seed, *seconds, *traced))
	}
	w, ok := newWorkload(names[0])
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", names[0], strings.Join(workloadNames, ", "))
		os.Exit(2)
	}

	work, err := os.MkdirTemp(mkdir(outDir), "work-")
	if err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: work}
	var res result
	if *traced == 1 {
		res, err = runTraced(names[0], w, o, filepath.Join(outDir, "trace"))
	} else {
		res, err = runUntraced(w, o)
	}
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, o options) (result, error) {
	p := newPass(o, nil)
	if err := w.run(p); err != nil {
		return result{}, err
	}
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	rates, heaps := p.perRound()
	values := map[string]float64{
		"op_ms":        p.opMs(),
		"ops_per_s":    median(rates),
		"setup_s":      median(setups),
		"peak_heap_mb": median(heaps) / (1 << 20),
	}
	return newResult(p.attempted(), p.failed(), endToEnd, values)
}

// newResult checks that values holds exactly the specs' metrics and
// packages them.
func newResult(attempted, failed int, specs []metricSpec, values map[string]float64) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		var extra []string
		for n := range values {
			if _, ok := res.Metrics[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		return res, fmt.Errorf("metrics %s are not in the benchmark's metric tables", strings.Join(extra, ", "))
	}
	return res, nil
}

// runChildren runs each named workload in its own child process, relays
// each child's result line, and prints a combined result whose metric
// names are prefixed with the workload name.
func runChildren(names []string, seed int64, seconds, traced int) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			return 1
		}
		var last []byte
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = append(last[:0], sc.Bytes()...)
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s printed no result: %v\n", name, err)
			return 1
		}
		fmt.Printf("%s %s\n", name, last)
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return 0
}

// mkdir creates dir (and its parents) and returns it.
func mkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
