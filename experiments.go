package cohesion

import (
	"context"
	"fmt"
	"math"
	"strings"

	"cohesion/internal/addr"
	"cohesion/internal/directory"
	"cohesion/internal/msg"
	"cohesion/internal/pool"
	"cohesion/internal/simerr"
	"cohesion/internal/stats"
)

// ExpParams scales the experiment harness. The zero value gives a
// laptop-sized machine that preserves the paper's qualitative shapes; the
// cohesion-experiments tool can raise everything toward Table 3 sizes.
type ExpParams struct {
	Clusters int      // simulated clusters (default 8 = 64 cores)
	Workers  int      // cores running each kernel (default 2 per cluster)
	Scale    int      // kernel data-set scale (default 2)
	Seed     int64    // workload seed
	Kernels  []string // default: all eight
	DirSizes []int    // Fig 9 sweep, entries per bank (default 32..1024)
	Verify   bool     // verify kernel outputs on every run

	// Parallel is the number of host goroutines running independent
	// simulations (0 = GOMAXPROCS, 1 = serial). Every simulation is
	// self-contained, and results are slotted by job index, so the
	// assembled tables are bit-identical at any setting.
	Parallel int

	// Ctx, when non-nil, cancels the sweep cooperatively: cells already
	// running end early with ErrCanceled, cells not yet started fail
	// fast, and the figure assembles with those cells marked failed.
	Ctx context.Context

	// Limits bounds every cell of the sweep (see RunLimits).
	Limits RunLimits

	// Checkpoint, when non-nil, records every completed cell to disk and
	// serves already-recorded cells from the cache, so an interrupted or
	// degraded sweep resumes only its failed/unfinished cells (see
	// OpenSweepCheckpoint). LatencyTable ignores it: the metrics
	// histograms it reports are not persisted.
	Checkpoint *SweepCheckpoint
}

func (p ExpParams) withDefaults() ExpParams {
	if p.Clusters == 0 {
		p.Clusters = 8
	}
	if p.Workers == 0 {
		p.Workers = 2 * p.Clusters
	}
	if p.Scale == 0 {
		p.Scale = 4
	}
	if len(p.Kernels) == 0 {
		p.Kernels = KernelNames()
	}
	if len(p.DirSizes) == 0 {
		// Fractions of the realistic directory capacity matching the
		// paper's 256..16384-per-bank sweep against its 16K realistic size.
		p.DirSizes = []int{32, 64, 128, 256, 512, 1024, 2048}
	}
	return p
}

// expMachine is ScaledConfig with the memory system shrunk in proportion
// to the scaled data sets, preserving the paper's working-set-to-cache
// ratios (the paper's kernels dwarf a 64 KB L2; scale-4 data sets dwarf an
// 8 KB one the same way). Associativities, line size, latencies, and the
// 2x directory provisioning of Table 3 are kept.
func (p ExpParams) expMachine() MachineConfig {
	c := ScaledConfig(p.Clusters)
	c.L2Size = 8 << 10
	c.L3Size = c.L3Banks * (32 << 10)
	totalL2Lines := p.Clusters * c.L2Size / 32
	c.DirEntriesPerBank = 2 * totalL2Lines / c.L3Banks // paper: 512K entries vs 256K lines
	c.DirAssoc = 128
	if c.DirAssoc > c.DirEntriesPerBank {
		c.DirAssoc = c.DirEntriesPerBank
	}
	c.Label = fmt.Sprintf("exp-%dc", c.Cores())
	return c
}

// Named machine configurations used across the figures.
func (p ExpParams) swccCfg() MachineConfig { return p.expMachine().WithMode(SWcc) }
func (p ExpParams) hwccIdealCfg() MachineConfig {
	return p.expMachine().WithMode(HWcc).WithDirectory(DirInfinite, 0, 0)
}
func (p ExpParams) hwccRealCfg() MachineConfig {
	return p.expMachine().WithMode(HWcc) // sparse full-map, 2x-provisioned
}
func (p ExpParams) hwccDir4BCfg() MachineConfig {
	c := p.expMachine().WithMode(HWcc)
	return c.WithDirectory(DirLimited4B, c.DirEntriesPerBank, c.DirAssoc)
}
func (p ExpParams) cohesionRealCfg() MachineConfig {
	return p.expMachine().WithMode(Cohesion)
}
func (p ExpParams) cohesionIdealCfg() MachineConfig {
	return p.expMachine().WithMode(Cohesion).WithDirectory(DirInfinite, 0, 0)
}
func (p ExpParams) cohesionDir4BCfg() MachineConfig {
	c := p.expMachine().WithMode(Cohesion)
	return c.WithDirectory(DirLimited4B, c.DirEntriesPerBank, c.DirAssoc)
}

func (p ExpParams) ctx() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

func (p ExpParams) run(kernel string, cfg MachineConfig) (*Result, error) {
	return RunCtx(p.ctx(), RunConfig{
		Machine: cfg,
		Kernel:  kernel,
		Scale:   p.Scale,
		Seed:    p.Seed,
		Workers: p.Workers,
		Verify:  p.Verify,
		Limits:  p.Limits,
	})
}

// runJob names one simulation of a figure's sweep.
type runJob struct {
	kernel string
	name   string // configuration label, used in error messages
	cfg    MachineConfig
}

// CellFailure is one failed simulation of a sweep: which cell, and why.
type CellFailure struct {
	Index  int    // job index within the sweep
	Kernel string // kernel name
	Config string // configuration label
	Err    error  // the cell's failure (panics contained as ErrRunPanicked)
}

// SweepError aggregates every failed cell of a figure sweep. The figure
// still assembles — failed cells render as failed(<reason>) and every
// other cell's numbers are bit-identical to a clean run — but the sweep
// as a whole reports failure so callers exit nonzero. errors.Is matches
// any cell's error chain (Unwrap []error).
type SweepError struct {
	Total int // cells in the sweep
	Cells []CellFailure
}

func (e *SweepError) Error() string {
	// Cell errors already carry their kernel/config prefix (runAll wraps
	// them), so only the count is added here.
	s := fmt.Sprintf("%d of %d sweep cells failed; first: %v", len(e.Cells), e.Total, e.Cells[0].Err)
	for _, c := range e.Cells[1:] {
		s += "\nalso failed: " + failureTag(c.Err)
	}
	return s
}

// Unwrap exposes every cell failure to errors.Is/errors.As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c.Err
	}
	return errs
}

// orNil converts a typed-nil *SweepError into a genuinely nil error.
func (e *SweepError) orNil() error {
	if e == nil {
		return nil
	}
	return e
}

// cell returns the failure for a job index (nil when that cell passed).
func (e *SweepError) cell(i int) error {
	if e == nil {
		return nil
	}
	for _, c := range e.Cells {
		if c.Index == i {
			return c.Err
		}
	}
	return nil
}

// failureTag renders a cell failure as the compact failed(<reason>)
// marker used in table and CSV cells: the first line of the error,
// truncated. The kernel/config wrapping prefix is dropped when the error
// chain carries a structured simerr diagnostic — the row already names
// the cell, so the tag leads with the failure class instead.
func failureTag(err error) string {
	reason := err.Error()
	if i := strings.IndexByte(reason, '\n'); i >= 0 {
		reason = reason[:i]
	}
	if i := strings.Index(reason, "simerr: "); i > 0 {
		reason = reason[i:]
	}
	if len(reason) > 80 {
		reason = reason[:77] + "..."
	}
	return "failed(" + reason + ")"
}

// runForTest, when non-nil, replaces p.run for one sweep — the test seam
// that injects cell failures (including panics) without a real
// simulation. Nil in production.
var runForTest func(job runJob, p ExpParams) (*Result, error)

// runAll executes a figure's independent simulations across p.Parallel
// host goroutines, returning results slotted by job index. The job list
// fully determines each simulation (configuration, kernel, seed), so the
// result slice — and everything derived from it — is identical at any
// parallelism. Failures degrade gracefully: a failed (or panicked) cell
// leaves a nil Result in its slot and an entry in the returned
// SweepError, while every other cell runs to completion — one bad
// configuration no longer discards an hour-long sweep.
func (p ExpParams) runAll(jobs []runJob) ([]*Result, *SweepError) {
	ctx := p.ctx()
	results, errs := pool.MapCatch(len(jobs), p.Parallel, func(i int) (*Result, error) {
		if ck := p.Checkpoint; ck != nil {
			// A cached cell costs nothing to serve, even mid-cancellation:
			// a re-interrupted resume still fills every cell it can.
			if res, ok := ck.lookup(jobs[i]); ok {
				return res, nil
			}
		}
		if err := ctx.Err(); err != nil {
			// Canceled mid-sweep: fail remaining cells fast instead of
			// building and aborting a machine per cell.
			return nil, fmt.Errorf("%s/%s: %w", jobs[i].kernel, jobs[i].name, simerr.ErrCanceled)
		}
		var res *Result
		var err error
		if runForTest != nil {
			res, err = runForTest(jobs[i], p)
		} else if res, err = p.run(jobs[i].kernel, jobs[i].cfg); err != nil {
			err = fmt.Errorf("%s/%s: %w", jobs[i].kernel, jobs[i].name, err)
		}
		if err != nil {
			return nil, err
		}
		if ck := p.Checkpoint; ck != nil {
			if cerr := ck.record(jobs[i], res); cerr != nil {
				return nil, fmt.Errorf("%s/%s: %w", jobs[i].kernel, jobs[i].name, cerr)
			}
		}
		return res, nil
	})
	var sw *SweepError
	for i, err := range errs {
		if err == nil {
			continue
		}
		if sw == nil {
			sw = &SweepError{Total: len(jobs)}
		}
		results[i] = nil // partial Results from budget-ended cells don't enter tables
		sw.Cells = append(sw.Cells, CellFailure{Index: i, Kernel: jobs[i].kernel, Config: jobs[i].name, Err: err})
	}
	return results, sw
}

// MessageBreakdown is one stacked bar of Figures 2 and 8: a kernel's
// L2-output message counts under one configuration, with the total
// normalized to the same kernel's SWcc total.
type MessageBreakdown struct {
	Kernel   string
	Config   string
	Counts   [msg.NumKinds]uint64
	Total    uint64
	Relative float64 // Total / SWcc total for the kernel
	Failed   string  // failed(<reason>) when this cell's run failed; "" otherwise
}

func breakdownRows(p ExpParams, configs []struct {
	name string
	cfg  MachineConfig
}) ([]MessageBreakdown, error) {
	var jobs []runJob
	for _, k := range p.Kernels {
		for _, c := range configs {
			jobs = append(jobs, runJob{kernel: k, name: c.name, cfg: c.cfg})
		}
	}
	results, sw := p.runAll(jobs)
	var out []MessageBreakdown
	for ki, k := range p.Kernels {
		var swccTotal uint64
		for ci, c := range configs {
			idx := ki*len(configs) + ci
			row := MessageBreakdown{Kernel: k, Config: c.name}
			if res := results[idx]; res != nil {
				row.Counts = res.Stats.Messages
				row.Total = res.TotalMessages()
			} else {
				row.Failed = failureTag(sw.cell(idx))
			}
			if ci == 0 {
				swccTotal = row.Total
			}
			if swccTotal > 0 && row.Failed == "" {
				row.Relative = float64(row.Total) / float64(swccTotal)
			}
			out = append(out, row)
		}
	}
	return out, sw.orNil()
}

// Fig2 reproduces Figure 2: L2-to-L3 message counts for SWcc and
// optimistic (infinite-directory) HWcc, normalized to SWcc.
func Fig2(p ExpParams) ([]MessageBreakdown, error) {
	p = p.withDefaults()
	return breakdownRows(p, []struct {
		name string
		cfg  MachineConfig
	}{
		{"SWcc", p.swccCfg()},
		{"HWcc", p.hwccIdealCfg()},
	})
}

// Fig8 reproduces Figure 8: message counts for SWcc, Cohesion, optimistic
// HWcc, and realistic (sparse-directory) HWcc, normalized to SWcc.
func Fig8(p ExpParams) ([]MessageBreakdown, error) {
	p = p.withDefaults()
	return breakdownRows(p, []struct {
		name string
		cfg  MachineConfig
	}{
		{"SWcc", p.swccCfg()},
		{"Cohesion", p.cohesionRealCfg()},
		{"HWccIdeal", p.hwccIdealCfg()},
		{"HWccReal", p.hwccRealCfg()},
	})
}

// FlushEfficiency is one group of Figure 3: the fraction of software
// invalidations and writebacks that found their line valid in the L2, as
// the L2 grows.
type FlushEfficiency struct {
	Kernel              string
	L2KB                int
	UsefulInv, UsefulWB float64
	Failed              string // failed(<reason>) when this cell's run failed
}

// Fig3 reproduces Figure 3 by sweeping the L2 size under SWcc. The paper
// sweeps 8K..128K around its 64K default; with the harness's scaled
// memory system (8K default L2) the equivalent 16x sweep is 2K..32K.
func Fig3(p ExpParams) ([]FlushEfficiency, error) {
	p = p.withDefaults()
	l2kbs := []int{2, 4, 8, 16, 32}
	var jobs []runJob
	for _, k := range p.Kernels {
		for _, kb := range l2kbs {
			cfg := p.swccCfg()
			cfg.L2Size = kb << 10
			jobs = append(jobs, runJob{kernel: k, name: fmt.Sprintf("L2=%dK", kb), cfg: cfg})
		}
	}
	results, sw := p.runAll(jobs)
	var out []FlushEfficiency
	for ki, k := range p.Kernels {
		for kbi, kb := range l2kbs {
			idx := ki*len(l2kbs) + kbi
			row := FlushEfficiency{Kernel: k, L2KB: kb}
			if res := results[idx]; res != nil {
				row.UsefulInv = res.Stats.UsefulInvFraction()
				row.UsefulWB = res.Stats.UsefulWBFraction()
			} else {
				row.Failed = failureTag(sw.cell(idx))
			}
			out = append(out, row)
		}
	}
	return out, sw.orNil()
}

// DirSweepPoint is one point of Figures 9a/9b: run time with a
// fully-associative directory of the given per-bank capacity, normalized
// to the same kernel with an infinite directory.
type DirSweepPoint struct {
	Kernel         string
	EntriesPerBank int // 0 = infinite baseline
	Cycles         uint64
	Slowdown       float64
	Failed         string // failed(<reason>) when this cell's run failed
}

// Fig9Sweep reproduces Figure 9a (mode HWcc) or 9b (mode Cohesion).
func Fig9Sweep(p ExpParams, mode Mode) ([]DirSweepPoint, error) {
	p = p.withDefaults()
	if mode != HWcc && mode != Cohesion {
		return nil, fmt.Errorf("cohesion: Fig9 sweeps HWcc or Cohesion, not %v", mode)
	}
	stride := 1 + len(p.DirSizes) // infinite baseline + each directory size
	var jobs []runJob
	for _, k := range p.Kernels {
		base := p.hwccIdealCfg()
		if mode == Cohesion {
			base = p.cohesionIdealCfg()
		}
		jobs = append(jobs, runJob{kernel: k, name: "infinite", cfg: base})
		for _, entries := range p.DirSizes {
			cfg := base.WithDirectory(DirSparse, entries, 0) // fully associative
			jobs = append(jobs, runJob{kernel: k, name: fmt.Sprint(entries), cfg: cfg})
		}
	}
	results, sw := p.runAll(jobs)
	var out []DirSweepPoint
	for ki, k := range p.Kernels {
		ref := results[ki*stride]
		refRow := DirSweepPoint{Kernel: k, EntriesPerBank: 0, Slowdown: 1}
		if ref != nil {
			refRow.Cycles = ref.Cycles()
		} else {
			refRow.Failed = failureTag(sw.cell(ki * stride))
			refRow.Slowdown = 0
		}
		out = append(out, refRow)
		for di, entries := range p.DirSizes {
			idx := ki*stride + 1 + di
			row := DirSweepPoint{Kernel: k, EntriesPerBank: entries}
			if res := results[idx]; res != nil {
				row.Cycles = res.Cycles()
				if ref != nil {
					row.Slowdown = float64(res.Cycles()) / float64(ref.Cycles())
				}
			} else {
				row.Failed = failureTag(sw.cell(idx))
			}
			out = append(out, row)
		}
	}
	return out, sw.orNil()
}

// OccupancyRow is one bar group of Figure 9c: time-averaged and maximum
// directory entries allocated, split by address class, under an unbounded
// directory.
type OccupancyRow struct {
	Kernel, Config                string
	MeanCode, MeanHeap, MeanStack float64
	MeanTotal                     float64
	MaxTotal                      uint64
	Failed                        string // failed(<reason>) when this cell's run failed
}

// Fig9c reproduces Figure 9c for Cohesion and HWcc with unbounded
// directories.
func Fig9c(p ExpParams) ([]OccupancyRow, error) {
	p = p.withDefaults()
	configs := []struct {
		name string
		cfg  MachineConfig
	}{
		{"Cohesion", p.cohesionIdealCfg()},
		{"HWcc", p.hwccIdealCfg()},
	}
	var jobs []runJob
	for _, k := range p.Kernels {
		for _, c := range configs {
			jobs = append(jobs, runJob{kernel: k, name: c.name, cfg: c.cfg})
		}
	}
	results, sw := p.runAll(jobs)
	var out []OccupancyRow
	for ki, k := range p.Kernels {
		for ci, c := range configs {
			idx := ki*len(configs) + ci
			row := OccupancyRow{Kernel: k, Config: c.name}
			if res := results[idx]; res != nil {
				o := &res.Stats.Occupancy
				row.MeanCode = o.MeanClass(addr.ClassCode)
				row.MeanHeap = o.MeanClass(addr.ClassHeapGlobal)
				row.MeanStack = o.MeanClass(addr.ClassStack)
				row.MeanTotal = o.MeanTotal()
				row.MaxTotal = o.MaxTotal()
			} else {
				row.Failed = failureTag(sw.cell(idx))
			}
			out = append(out, row)
		}
	}
	return out, sw.orNil()
}

// RuntimeRow is one bar of Figure 10: run time under one configuration,
// normalized to Cohesion with the full-map sparse directory.
type RuntimeRow struct {
	Kernel, Config string
	Cycles         uint64
	Normalized     float64
	Failed         string // failed(<reason>) when this cell's run failed
}

// Fig10 reproduces Figure 10: relative run time for Cohesion (full-map),
// Cohesion (Dir4B), SWcc, optimistic HWcc, realistic HWcc (full-map
// sparse), and HWcc (Dir4B), normalized to the first.
func Fig10(p ExpParams) ([]RuntimeRow, error) {
	p = p.withDefaults()
	configs := []struct {
		name string
		cfg  MachineConfig
	}{
		{"Cohesion", p.cohesionRealCfg()},
		{"Cohesion(Dir4B)", p.cohesionDir4BCfg()},
		{"SWcc", p.swccCfg()},
		{"HWccOpt", p.hwccIdealCfg()},
		{"HWccReal", p.hwccRealCfg()},
		{"HWcc(Dir4B)", p.hwccDir4BCfg()},
	}
	var jobs []runJob
	for _, k := range p.Kernels {
		for _, c := range configs {
			jobs = append(jobs, runJob{kernel: k, name: c.name, cfg: c.cfg})
		}
	}
	results, sw := p.runAll(jobs)
	var out []RuntimeRow
	for ki, k := range p.Kernels {
		var base uint64
		if ref := results[ki*len(configs)]; ref != nil {
			base = ref.Cycles()
		}
		for ci, c := range configs {
			idx := ki*len(configs) + ci
			row := RuntimeRow{Kernel: k, Config: c.name}
			if res := results[idx]; res != nil {
				row.Cycles = res.Cycles()
				if base > 0 {
					row.Normalized = float64(res.Cycles()) / float64(base)
				}
			} else {
				row.Failed = failureTag(sw.cell(idx))
			}
			out = append(out, row)
		}
	}
	return out, sw.orNil()
}

// MsgLatencyRow is one row of the message-latency table: the
// issue-to-settle sim-time distribution of one L2-output message class for
// one kernel under one configuration, from the metrics registry.
type MsgLatencyRow struct {
	Kernel, Config, Class string
	Count                 uint64
	Mean                  float64
	P50, P90, P99, Max    uint64
	Failed                string // failed(<reason>) when this cell's run failed
}

// LatencyTable runs each kernel under SWcc, realistic HWcc, and Cohesion
// with the metrics registry attached and reports per-class L2 transaction
// latency (one row per non-empty message class). It does not participate
// in sweep checkpointing (p.Checkpoint is ignored): the histograms it
// reports are live metrics state, which checkpoints do not persist.
func LatencyTable(p ExpParams) ([]MsgLatencyRow, error) {
	p = p.withDefaults()
	configs := []struct {
		name string
		cfg  MachineConfig
	}{
		{"SWcc", p.swccCfg()},
		{"HWccReal", p.hwccRealCfg()},
		{"Cohesion", p.cohesionRealCfg()},
	}
	var jobs []runJob
	for _, k := range p.Kernels {
		for _, c := range configs {
			jobs = append(jobs, runJob{kernel: k, name: c.name, cfg: c.cfg})
		}
	}
	ctx := p.ctx()
	results, errs := pool.MapCatch(len(jobs), p.Parallel, func(i int) (*Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", jobs[i].kernel, jobs[i].name, simerr.ErrCanceled)
		}
		res, err := RunCtx(ctx, RunConfig{
			Machine: jobs[i].cfg,
			Kernel:  jobs[i].kernel,
			Scale:   p.Scale,
			Seed:    p.Seed,
			Workers: p.Workers,
			Verify:  p.Verify,
			Metrics: true,
			Limits:  p.Limits,
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", jobs[i].kernel, jobs[i].name, err)
		}
		return res, nil
	})
	var sw *SweepError
	var out []MsgLatencyRow
	for ji, job := range jobs {
		if errs[ji] != nil {
			if sw == nil {
				sw = &SweepError{Total: len(jobs)}
			}
			sw.Cells = append(sw.Cells, CellFailure{Index: ji, Kernel: job.kernel, Config: job.name, Err: errs[ji]})
			out = append(out, MsgLatencyRow{Kernel: job.kernel, Config: job.name, Failed: failureTag(errs[ji])})
			continue
		}
		m := results[ji].Stats.Metrics
		for _, k := range msg.Kinds() {
			h := &m.MsgLatency[k]
			if h.Count == 0 {
				continue
			}
			s := h.Summarize()
			out = append(out, MsgLatencyRow{
				Kernel: job.kernel,
				Config: job.name,
				Class:  k.String(),
				Count:  s.Count,
				Mean:   s.Mean,
				P50:    s.P50,
				P90:    s.P90,
				P99:    s.P99,
				Max:    s.Max,
			})
		}
	}
	return out, sw.orNil()
}

// AreaEstimates reproduces the §4.4 directory-area accounting for the
// paper's Table 3 machine.
func AreaEstimates() []directory.AreaEstimate {
	return directory.AreaTable(directory.PaperAreaInputs())
}

// Summary holds the paper's two headline aggregates (abstract/§4.6).
type Summary struct {
	// MessageReduction is the geometric-mean ratio of optimistic-HWcc to
	// Cohesion L2-output messages (paper: ~2x).
	MessageReduction float64
	// DirectoryReduction is the geometric-mean ratio of HWcc to Cohesion
	// time-averaged directory occupancy (paper: ~2.1x).
	DirectoryReduction float64
}

// HeadlineSummary computes the two headline ratios over all kernels.
func HeadlineSummary(p ExpParams) (*Summary, error) {
	p = p.withDefaults()
	fig8, err := Fig8(p)
	if err != nil {
		return nil, err
	}
	msgRatio, n := 1.0, 0
	byKernel := map[string]map[string]uint64{}
	for _, row := range fig8 {
		if byKernel[row.Kernel] == nil {
			byKernel[row.Kernel] = map[string]uint64{}
		}
		byKernel[row.Kernel][row.Config] = row.Total
	}
	for _, k := range p.Kernels {
		hw, coh := byKernel[k]["HWccIdeal"], byKernel[k]["Cohesion"]
		if hw > 0 && coh > 0 {
			msgRatio *= float64(hw) / float64(coh)
			n++
		}
	}
	s := &Summary{}
	if n > 0 {
		s.MessageReduction = pow(msgRatio, 1/float64(n))
	}
	occ, err := Fig9c(p)
	if err != nil {
		return nil, err
	}
	// Aggregate utilization ratio (sum over kernels); per-kernel ratios can
	// be unbounded for kernels whose Cohesion port leaves the directory
	// empty, so the aggregate is the robust analogue of the paper's 2.1x.
	var hwSum, cohSum float64
	for _, row := range occ {
		switch row.Config {
		case "HWcc":
			hwSum += row.MeanTotal
		case "Cohesion":
			cohSum += row.MeanTotal
		}
	}
	if cohSum > 0 {
		s.DirectoryReduction = hwSum / cohSum
	}
	return s, nil
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// BreakdownTable renders Figure 2/8 rows as an aligned text table.
func BreakdownTable(rows []MessageBreakdown) *stats.Table {
	t := &stats.Table{Header: []string{"kernel", "config", "total", "rel"}}
	for _, k := range msg.Kinds() {
		t.Header = append(t.Header, k.String())
	}
	for _, r := range rows {
		if r.Failed != "" {
			cells := []string{r.Kernel, r.Config, r.Failed, "-"}
			for range msg.Kinds() {
				cells = append(cells, "-")
			}
			t.Add(cells...)
			continue
		}
		cells := []string{r.Kernel, r.Config, fmt.Sprint(r.Total), fmt.Sprintf("%.2f", r.Relative)}
		for _, k := range msg.Kinds() {
			cells = append(cells, fmt.Sprint(r.Counts[k]))
		}
		t.Add(cells...)
	}
	return t
}
