// Package stress implements a randomized protocol stress fuzzer for the
// simulator: seeded random task programs mix HWcc and SWcc loads, stores,
// atomics, flushes, invalidates, and line-granularity coherence-domain
// transitions across many cores, run on a deliberately small L2 and
// sparse directory for eviction and recall pressure, with the online
// coherence oracle (internal/oracle) watching every event.
//
// Everything is deterministic: a Config fully determines the generated
// Program, and a Program fully determines the simulation (including any
// injected faults). Programs run untraced; Capture re-runs a failing one
// with a trace sink attached and packages it as a JSON repro file (seed,
// config, op schedule, protocol trace tail) that Replay re-executes and
// Shrink reduces to a minimal still-failing schedule.
package stress

import (
	"math/rand"

	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/simerr"
)

// Config parameterizes program generation and the machine it runs on.
type Config struct {
	// Seed drives the program generator (and nothing else).
	Seed int64 `json:"seed"`

	// Mode is the memory model: "hwcc", "swcc", or "cohesion".
	Mode string `json:"mode"`

	// Clusters is the machine size (8 cores per cluster).
	Clusters int `json:"clusters"`

	// Lines is the number of shared fuzzed lines. Their addresses stride
	// across L3 banks and L2 sets; under Cohesion, odd-indexed lines start
	// in the SWcc domain (preset fine-grain table bits).
	Lines int `json:"lines"`

	// OpsPerCore is the length of each core's random op schedule.
	OpsPerCore int `json:"ops_per_core"`

	// WorkersPerCluster is how many cores per cluster run a schedule.
	WorkersPerCluster int `json:"workers_per_cluster"`

	// Faults composes the run with the deterministic fault-injection layer
	// (drops, duplicates, delay spikes, NACKs) seeded by FaultSeed.
	Faults    bool  `json:"faults,omitempty"`
	FaultSeed int64 `json:"fault_seed,omitempty"`

	// InjectCorrupt plants a memory-corruption motif in core 0's schedule
	// (a host-side store-behind-the-protocol's-back); the oracle must
	// catch it. Used to validate the detection pipeline end to end.
	InjectCorrupt bool `json:"inject_corrupt,omitempty"`

	// MSHRs overrides the per-cluster L2 miss-status-register count
	// (0 keeps the machine default). Small values force MSHR stalls.
	MSHRs int `json:"mshrs,omitempty"`

	// Dir selects the directory organization: "" or "sparse" (the stress
	// default), "dir4b" (pointer-limited), or "infinite". Ignored in swcc
	// mode, which runs directory-less.
	Dir string `json:"dir,omitempty"`

	// DirEntries and DirAssoc override the per-bank directory geometry
	// (0 keeps the stress defaults of 256 entries, 8-way). Tiny
	// directories force capacity evictions and allocation stalls.
	DirEntries int `json:"dir_entries,omitempty"`
	DirAssoc   int `json:"dir_assoc,omitempty"`

	// NackOnCapacity makes home banks NACK allocations when every
	// candidate directory way is pinned, instead of silently retrying.
	NackOnCapacity bool `json:"nack_on_capacity,omitempty"`
}

// WithDefaults fills zero-valued knobs with sensible defaults.
func (c Config) WithDefaults() Config {
	if c.Mode == "" {
		c.Mode = "cohesion"
	}
	if c.Clusters == 0 {
		c.Clusters = 2
	}
	if c.Lines == 0 {
		c.Lines = 16
	}
	if c.OpsPerCore == 0 {
		c.OpsPerCore = 80
	}
	if c.WorkersPerCluster == 0 {
		c.WorkersPerCluster = 4
	}
	return c
}

// Validate rejects unusable configurations with simerr.ErrConfig.
func (c Config) Validate() error {
	switch c.Mode {
	case "hwcc", "swcc", "cohesion":
	default:
		return simerr.Config("stress: unknown mode %q (want hwcc, swcc, or cohesion)", c.Mode)
	}
	switch {
	case c.Clusters < 1 || c.Clusters > 64:
		return simerr.Config("stress: Clusters = %d outside [1, 64]", c.Clusters)
	case c.Lines < 1 || c.Lines > 4096:
		return simerr.Config("stress: Lines = %d outside [1, 4096]", c.Lines)
	case c.OpsPerCore < 1 || c.OpsPerCore > 1_000_000:
		return simerr.Config("stress: OpsPerCore = %d outside [1, 1000000]", c.OpsPerCore)
	case c.WorkersPerCluster < 1 || c.WorkersPerCluster > 8:
		return simerr.Config("stress: WorkersPerCluster = %d outside [1, 8]", c.WorkersPerCluster)
	case c.MSHRs < 0:
		return simerr.Config("stress: MSHRs must be non-negative")
	case c.DirEntries < 0 || c.DirAssoc < 0:
		return simerr.Config("stress: directory geometry must be non-negative")
	}
	switch c.Dir {
	case "", "sparse", "dir4b", "infinite":
	default:
		return simerr.Config("stress: unknown dir %q (want sparse, dir4b, or infinite)", c.Dir)
	}
	return nil
}

func (c Config) mode() config.Mode {
	switch c.Mode {
	case "swcc":
		return config.SWcc
	case "hwcc":
		return config.HWcc
	}
	return config.Cohesion
}

// Op kinds. Short tags keep repro files compact and readable.
const (
	OpLoad     = "ld"      // cached load
	OpStore    = "st"      // cached store
	OpAtomic   = "at"      // uncached atomic (add/or/xchg by Value%3)
	OpUncLoad  = "uld"     // uncached load
	OpUncStore = "ust"     // uncached store
	OpFlush    = "fl"      // software writeback of the line
	OpInv      = "inv"     // software invalidate of the line
	OpToSW     = "tosw"    // region-table flip: line to the SWcc domain
	OpToHW     = "tohw"    // region-table flip: line to the HWcc domain
	OpWork     = "wk"      // a few cycles of non-memory work
	OpCorrupt  = "corrupt" // host-side store corruption (oracle must catch)
)

// Op is one step of a core's schedule.
type Op struct {
	Kind  string `json:"k"`
	Line  int    `json:"l"`           // fuzz-line index (Lines = the private corruption line)
	Word  int    `json:"w,omitempty"` // word within the line
	Value uint32 `json:"v,omitempty"`
}

// coreOps is one core's op schedule.
type coreOps struct {
	Ops []Op `json:"ops"`
}

// Program is a fully-determined stress run: the configuration plus one op
// schedule per participating core (core index ci runs on cluster
// ci/WorkersPerCluster).
type Program struct {
	Cfg   Config    `json:"cfg"`
	Cores []coreOps `json:"cores"`
}

// lineStride spaces fuzz lines so that both the L3 bank index (address
// bits >= 11) and the L2 set index vary across lines, with enough lines
// mapping near each other to keep eviction pressure on the small fuzz L2.
const lineStride = 2048 + addr.LineBytes

// LineAddr maps a fuzz-line index to its base address. Under Cohesion,
// odd indices live on the preset-SWcc side of the heap.
func (c Config) LineAddr(i int) addr.Addr {
	base := addr.HeapBase
	if c.Mode == "cohesion" && i%2 == 1 {
		base = addr.CohHeapBase
	}
	return base + addr.Addr(i*lineStride)
}

// weighted op menu per mode.
type menuEntry struct {
	kind   string
	weight int
}

func (c Config) menu() []menuEntry {
	m := []menuEntry{
		{OpLoad, 30},
		{OpStore, 30},
		{OpAtomic, 6},
		{OpUncLoad, 3},
		{OpUncStore, 3},
		{OpWork, 5},
	}
	if c.Mode != "hwcc" {
		m = append(m, menuEntry{OpFlush, 8}, menuEntry{OpInv, 6})
	}
	if c.Mode == "cohesion" {
		m = append(m, menuEntry{OpToSW, 4}, menuEntry{OpToHW, 4})
	}
	return m
}

// Generate builds the deterministic random program for a configuration.
// The same Config (seed included) always yields the same Program.
func Generate(cfg Config) (Program, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return Program{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	menu := cfg.menu()
	total := 0
	for _, e := range menu {
		total += e.weight
	}
	pick := func() string {
		n := rng.Intn(total)
		for _, e := range menu {
			if n < e.weight {
				return e.kind
			}
			n -= e.weight
		}
		return OpLoad
	}
	p := Program{Cfg: cfg}
	cores := cfg.Clusters * cfg.WorkersPerCluster
	for ci := 0; ci < cores; ci++ {
		ops := make([]Op, 0, cfg.OpsPerCore)
		for len(ops) < cfg.OpsPerCore {
			op := Op{
				Kind: pick(),
				Line: rng.Intn(cfg.Lines),
				Word: rng.Intn(addr.WordsPerLine),
			}
			switch op.Kind {
			case OpStore, OpUncStore, OpAtomic:
				op.Value = rng.Uint32()
			case OpWork:
				op.Value = uint32(rng.Intn(100) + 1) // cycles
			}
			ops = append(ops, op)
		}
		p.Cores = append(p.Cores, coreOps{ops})
	}
	if cfg.InjectCorrupt && len(p.Cores) > 0 {
		// The corruption motif targets a private line (index Lines) no
		// random op touches: an uncached store plants a known value, the
		// corrupt op silently flips the backing store behind the
		// protocol's back, and the uncached load must surface the lie.
		v := rng.Uint32()
		private := cfg.Lines
		motif := []Op{
			{Kind: OpUncStore, Line: private, Word: 0, Value: v},
			{Kind: OpCorrupt, Line: private, Word: 0, Value: v ^ 0xdeadbeef},
			{Kind: OpUncLoad, Line: private, Word: 0},
		}
		ops := p.Cores[0].Ops
		at := len(ops) / 2
		p.Cores[0].Ops = append(ops[:at:at], append(motif, ops[at:]...)...)
	}
	return p, nil
}
