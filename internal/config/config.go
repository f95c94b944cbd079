// Package config describes a simulated machine: sizing, timing, directory
// organization, and which coherence model the run uses. Table3 reproduces
// the paper's Table 3 exactly; scaled presets keep tests and benches fast
// while exercising identical mechanisms.
package config

import (
	"fmt"

	"cohesion/internal/addr"
	"cohesion/internal/simerr"
)

// Mode selects the memory model for a run (the paper's four design points).
type Mode uint8

const (
	// SWcc: software-managed coherence only. No directory; all sharing is
	// handled by explicit flush/invalidate at task boundaries.
	SWcc Mode = iota
	// HWcc: hardware-managed (MSI directory) coherence for all of memory.
	HWcc
	// Cohesion: hybrid. Default HWcc, with region tables moving lines into
	// the SWcc domain and back at run time.
	Cohesion
)

func (m Mode) String() string {
	switch m {
	case SWcc:
		return "SWcc"
	case HWcc:
		return "HWcc"
	case Cohesion:
		return "Cohesion"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// DirKind selects the directory organization (paper §3.2, §4.1).
type DirKind uint8

const (
	// DirNone: no directory (SWcc runs).
	DirNone DirKind = iota
	// DirInfinite: optimistic full-map directory with unbounded capacity and
	// full associativity; zero-conflict (the paper's "HWcc ideal").
	DirInfinite
	// DirSparse: realistic sparse set-associative full-map directory
	// (16K entries × 128 ways per L3 bank by default).
	DirSparse
	// DirLimited4B: Dir4B limited-pointer directory: four sharer pointers
	// per entry; overflow sets a broadcast bit (sparse storage).
	DirLimited4B
)

func (k DirKind) String() string {
	switch k {
	case DirNone:
		return "none"
	case DirInfinite:
		return "full-map (infinite)"
	case DirSparse:
		return "sparse full-map"
	case DirLimited4B:
		return "Dir4B sparse"
	}
	return fmt.Sprintf("DirKind(%d)", uint8(k))
}

// Machine is the full description of a simulated processor. All sizes are
// bytes unless suffixed otherwise; all latencies are core cycles.
type Machine struct {
	// Topology.
	Clusters        int // number of 8-core clusters
	CoresPerCluster int
	L3Banks         int
	DRAMChannels    int

	// Caches.
	L1ISize, L1IAssoc int
	L1DSize, L1DAssoc int
	L2Size, L2Assoc   int
	L3Size, L3Assoc   int // L3Size is the total across banks

	// L2MSHRs bounds each cluster's outstanding L2 misses (miss-status
	// holding registers); further misses stall at the L2 until a slot
	// frees. The eight blocking cores of a cluster need at most eight.
	L2MSHRs int

	// Latencies (cycles) and bandwidth.
	L1Latency         int
	L2Latency         int
	L3Latency         int
	TreeLatency       int // cluster -> tree root, one way
	XbarLatency       int // tree root -> L3 bank, one way
	DRAMLatency       int // controller + device access
	DRAMCyclesPerLine int // per-line occupancy of a channel (bandwidth model)

	// Directory.
	Directory         DirKind
	DirEntriesPerBank int // sparse/limited capacity; ignored for infinite
	DirAssoc          int // sparse/limited associativity; 0 = fully associative

	// Memory model.
	Mode Mode

	// SWcc/Cohesion behaviour toggles (ablations; defaults match the paper).
	ReadReleases    bool // HWcc sends read releases on clean evictions
	CoarseTable     bool // Cohesion uses the coarse-grain region table
	TableCachedInL3 bool // fine-grain region table lookups may hit in L3

	// NetJitter, when positive, adds up to this many random extra cycles
	// of occupancy to every link traversal (seeded by NetJitterSeed).
	// Per-link FIFO ordering is preserved; only cross-link interleavings
	// change. Robustness-testing aid, off by default.
	NetJitter     int
	NetJitterSeed int64

	// Faults configures deterministic fault injection at the interconnect
	// and directory layers (drops, duplicate deliveries, delay spikes,
	// capacity NACKs). Zero value = no faults.
	Faults FaultPlan

	// OracleEnabled attaches the online coherence oracle (internal/oracle):
	// a shadow sequential memory plus per-line domain/ownership model that
	// observes every completed load, store, atomic, grant, probe, writeback
	// and domain transition, and fails the run with ErrProtocolInvariant at
	// the first violating event instead of at quiescence. Checking only; no
	// timing or protocol behaviour changes.
	OracleEnabled bool

	// WatchdogCycles is the forward-progress window: if no operation
	// completes for this many cycles while cores are still active, the run
	// fails with a structured deadlock diagnostic instead of hanging.
	// 0 selects the default window; negative disables the watchdog.
	WatchdogCycles int64

	// L2RetryTimeout is the cycle count after which an outstanding L2
	// request is retransmitted (0 = default). Timeout-driven retransmission
	// is armed only when Faults.Enabled && Faults.Recovery; spurious
	// retransmissions are harmless because the home deduplicates by
	// transaction ID.
	L2RetryTimeout int

	// L2RetryLimit bounds timeout retransmissions per transaction
	// (0 = default); exhaustion fails the run with ErrRetryExhausted.
	L2RetryLimit int

	// DirNackOnCapacity makes a home bank NACK a request when every
	// candidate directory way is pinned by in-flight transactions, instead
	// of the default silent internal retry loop. Requesters back off and
	// retransmit.
	DirNackOnCapacity bool

	// TrapOnRace makes the directory signal an exception with the
	// transition acknowledgement when a SW-to-HW capture finds the same
	// word dirty in multiple L2s (paper §3.6: "For debugging, it may be
	// useful to have the directory signal an exception with its return
	// message to the requesting core").
	TrapOnRace bool

	// Runtime sizing.
	StackBytesPerCore int

	// Label names the configuration in reports.
	Label string
}

// FaultPlan configures the deterministic fault-injection layer. All
// probabilities are in permille (0..1000) and are drawn from a PRNG
// seeded by Seed, so the same plan on the same workload reproduces the
// same faults bit-for-bit.
//
// Drops and duplicates apply only to retryable requests (reads, writes,
// instruction fetches — see msg.ReqKind.Retryable); delay spikes apply to
// every link traversal as extra occupancy, which preserves per-link FIFO
// ordering exactly like NetJitter does.
type FaultPlan struct {
	// Enabled turns the fault layer on.
	Enabled bool

	// Recovery arms the L2 timeout/retransmission machinery. With it off,
	// an injected drop wedges the requester and the watchdog reports the
	// deadlock — useful for exercising the diagnostic path.
	Recovery bool

	// Seed seeds the fault plan's PRNG.
	Seed int64

	// DropPermille is the chance a retryable request vanishes in flight
	// (it still occupies its links; the receiver never sees it).
	DropPermille int

	// DupPermille is the chance a retryable request is delivered twice.
	DupPermille int

	// DelayPermille is the chance one link traversal suffers a delay
	// spike of 1..DelayMax extra occupancy cycles.
	DelayPermille int

	// DelayMax bounds the delay spike (cycles).
	DelayMax int

	// NackPermille is the chance the home NACKs a directory allocation,
	// simulating capacity pressure; the requester backs off and retries.
	NackPermille int

	// MaxDrops and MaxDups bound the total injected faults of each kind
	// (0 = a generous default), keeping plans from starving a retry budget.
	MaxDrops int
	MaxDups  int
}

// DefaultFaultPlan returns a plan with recovery enabled and moderate
// fault rates: ~2% drops, ~2% duplicates, ~1% delay spikes up to 200
// cycles, ~0.5% allocation NACKs.
func DefaultFaultPlan(seed int64) FaultPlan {
	return FaultPlan{
		Enabled:       true,
		Recovery:      true,
		Seed:          seed,
		DropPermille:  20,
		DupPermille:   20,
		DelayPermille: 10,
		DelayMax:      200,
		NackPermille:  5,
	}
}

// Table3 returns the paper's full 1024-core baseline configuration
// (Table 3), with the realistic sparse directory.
func Table3() Machine {
	return Machine{
		Clusters:        128,
		CoresPerCluster: 8,
		L3Banks:         32,
		DRAMChannels:    8,

		L1ISize: 2 << 10, L1IAssoc: 2,
		L1DSize: 1 << 10, L1DAssoc: 2,
		L2Size: 64 << 10, L2Assoc: 16,
		L3Size: 4 << 20, L3Assoc: 8,

		L2MSHRs:           16,
		L1Latency:         1,
		L2Latency:         4,
		L3Latency:         16,
		TreeLatency:       6,
		XbarLatency:       4,
		DRAMLatency:       100,
		DRAMCyclesPerLine: 4, // 32 B / (192 GB/s / 8 ch / 1.5 GHz) ≈ 2; 4 adds command overhead

		Directory:         DirSparse,
		DirEntriesPerBank: 16 << 10,
		DirAssoc:          128,

		Mode:            HWcc,
		ReadReleases:    true,
		CoarseTable:     true,
		TableCachedInL3: true,

		StackBytesPerCore: 4 << 10,
		Label:             "table3",
	}
}

// Scaled returns a configuration with the same per-cluster geometry and
// timing as Table 3 but fewer clusters/banks/channels, for fast tests and
// benches. clusters must be a multiple of banks and banks a multiple of
// channels for even striding; Scaled picks sensible bank/channel counts.
func Scaled(clusters int) Machine {
	m := Table3()
	m.Clusters = clusters
	m.L3Banks = clusters / 4
	if m.L3Banks < 1 {
		m.L3Banks = 1
	}
	if m.L3Banks > 32 {
		m.L3Banks = 32
	}
	m.DRAMChannels = m.L3Banks / 4
	if m.DRAMChannels < 1 {
		m.DRAMChannels = 1
	}
	m.L3Size = m.L3Banks * (128 << 10) // keep 128 KB per bank, as in Table 3
	m.DirEntriesPerBank = 16 << 10
	m.Label = fmt.Sprintf("scaled-%dc", clusters*m.CoresPerCluster)
	return m
}

// Cores returns the total core count.
func (m Machine) Cores() int { return m.Clusters * m.CoresPerCluster }

// L3BankSize returns the per-bank L3 capacity in bytes.
func (m Machine) L3BankSize() int { return m.L3Size / m.L3Banks }

// L2Lines returns the number of lines in one L2.
func (m Machine) L2Lines() int { return m.L2Size / addr.LineBytes }

// WithMode returns a copy with the memory model (and matching directory
// default) switched: SWcc drops the directory, HWcc/Cohesion keep whatever
// directory is configured (or restore sparse if none).
func (m Machine) WithMode(mode Mode) Machine {
	m.Mode = mode
	switch mode {
	case SWcc:
		m.Directory = DirNone
	case HWcc, Cohesion:
		if m.Directory == DirNone {
			m.Directory = DirSparse
		}
	}
	return m
}

// WithDirectory returns a copy using the given directory organization and
// capacity. entriesPerBank and assoc are ignored for DirInfinite; assoc 0
// means fully associative.
func (m Machine) WithDirectory(kind DirKind, entriesPerBank, assoc int) Machine {
	m.Directory = kind
	m.DirEntriesPerBank = entriesPerBank
	m.DirAssoc = assoc
	return m
}

// Validate checks structural invariants the simulator depends on. All
// rejections wrap simerr.ErrConfig.
func (m Machine) Validate() error {
	switch {
	case m.Clusters < 1:
		return simerr.Config("need at least one cluster")
	case m.CoresPerCluster < 1:
		return simerr.Config("need at least one core per cluster")
	case m.L3Banks < 1:
		return simerr.Config("need at least one L3 bank")
	case m.DRAMChannels < 1:
		return simerr.Config("need at least one DRAM channel")
	case m.L3Banks%m.DRAMChannels != 0:
		return simerr.Config("L3 banks (%d) must be a multiple of DRAM channels (%d)", m.L3Banks, m.DRAMChannels)
	case m.L3Banks&(m.L3Banks-1) != 0:
		return simerr.Config("L3 banks (%d) must be a power of two for address striding", m.L3Banks)
	}
	for _, c := range []struct {
		name        string
		size, assoc int
	}{
		{"L1I", m.L1ISize, m.L1IAssoc},
		{"L1D", m.L1DSize, m.L1DAssoc},
		{"L2", m.L2Size, m.L2Assoc},
		{"L3 bank", m.L3BankSize(), m.L3Assoc},
	} {
		lines := c.size / addr.LineBytes
		if c.size%addr.LineBytes != 0 || lines < c.assoc || c.assoc < 1 || lines%c.assoc != 0 {
			return simerr.Config("bad %s geometry: %d bytes, %d-way", c.name, c.size, c.assoc)
		}
	}
	if m.Mode != SWcc && m.Directory == DirNone {
		return simerr.Config("mode %v requires a directory", m.Mode)
	}
	if m.Mode == SWcc && m.Directory != DirNone {
		return simerr.Config("SWcc mode must not configure a directory")
	}
	if (m.Directory == DirSparse || m.Directory == DirLimited4B) && m.DirEntriesPerBank < 1 {
		return simerr.Config("sparse/limited directory needs DirEntriesPerBank >= 1")
	}
	if m.DirAssoc > 0 && m.DirEntriesPerBank%m.DirAssoc != 0 {
		return simerr.Config("directory entries (%d) must be a multiple of associativity (%d)", m.DirEntriesPerBank, m.DirAssoc)
	}
	if m.StackBytesPerCore < addr.LineBytes {
		return simerr.Config("stacks must hold at least one line")
	}
	if m.L2MSHRs < 1 {
		return simerr.Config("need at least one L2 MSHR")
	}
	if m.L2RetryTimeout < 0 || m.L2RetryLimit < 0 {
		return simerr.Config("L2 retry knobs must be non-negative")
	}
	if f := m.Faults; f.Enabled {
		for _, p := range []struct {
			name string
			v    int
		}{
			{"DropPermille", f.DropPermille},
			{"DupPermille", f.DupPermille},
			{"DelayPermille", f.DelayPermille},
			{"NackPermille", f.NackPermille},
		} {
			if p.v < 0 || p.v > 1000 {
				return simerr.Config("fault %s = %d outside [0, 1000]", p.name, p.v)
			}
		}
		if f.DelayMax < 0 || f.MaxDrops < 0 || f.MaxDups < 0 {
			return simerr.Config("fault bounds must be non-negative")
		}
		if f.DelayPermille > 0 && f.DelayMax == 0 {
			return simerr.Config("DelayPermille set with DelayMax = 0")
		}
		if f.DropPermille > 0 && !f.Recovery && m.WatchdogCycles < 0 {
			return simerr.Config("drops without recovery need the watchdog to detect the wedge")
		}
	}
	return nil
}
