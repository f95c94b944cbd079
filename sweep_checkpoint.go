package cohesion

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"cohesion/internal/snapshot"
	"cohesion/internal/stats"
)

// sweepCell is one completed sweep cell's persisted measurements: the
// run's counters and memory fingerprint, enough to reconstruct the cell's
// table row bit-for-bit without re-running the simulation. (Metrics
// histograms are not persisted, which is why LatencyTable does not
// participate in sweep checkpointing.)
type sweepCell struct {
	Stats          stats.Counters `json:"stats"`
	MemFingerprint uint64         `json:"mem_fingerprint"`
}

// sweepState is the payload of a KindSweep snapshot file.
type sweepState struct {
	// SpecHash fingerprints the sweep parameters that determine cell
	// results (clusters, workers, scale, seed, kernel list, directory
	// sizes, verify, deterministic limits). A checkpoint written under a
	// different spec is rejected on resume instead of silently mixing
	// incompatible results.
	SpecHash string               `json:"spec_hash"`
	Cells    map[string]sweepCell `json:"cells"`
}

// SweepCheckpoint caches completed sweep-cell results on disk so an
// interrupted or degraded experiment sweep resumes only its failed and
// unfinished cells. Attach one to ExpParams.Checkpoint: every cell that
// completes is recorded (atomic temp-file+rename write per cell), and
// every cell already recorded is served from the cache — its table row is
// bit-identical to the original run's, since the run's counters and
// memory fingerprint are persisted. Cells keyed by kernel, configuration
// label, and a machine-configuration digest are shared across figures
// that run the identical simulation.
type SweepCheckpoint struct {
	path string

	mu     sync.Mutex
	state  sweepState
	seq    uint64
	reused int
}

// sweepSpecHash digests the ExpParams fields that determine cell results.
// Ctx, Parallel, and Checkpoint are per-process execution choices, not
// sweep identity.
func sweepSpecHash(p ExpParams) string {
	p = p.withDefaults()
	spec := struct {
		Clusters int       `json:"clusters"`
		Workers  int       `json:"workers"`
		Scale    int       `json:"scale"`
		Seed     int64     `json:"seed"`
		Kernels  []string  `json:"kernels"`
		DirSizes []int     `json:"dir_sizes"`
		Verify   bool      `json:"verify"`
		Limits   RunLimits `json:"limits"`
	}{p.Clusters, p.Workers, p.Scale, p.Seed, p.Kernels, p.DirSizes, p.Verify, p.Limits}
	b, err := json.Marshal(spec)
	if err != nil {
		return "unhashable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellKey names one sweep cell: kernel, configuration label, and a digest
// of the full machine configuration (labels alone can collide across
// figures that tweak the machine, e.g. Fig3's L2 sweep).
func cellKey(job runJob) string {
	b, err := json.Marshal(job.cfg)
	if err != nil {
		return job.kernel + "/" + job.name + "/unhashable"
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%s/%s/%016x", job.kernel, job.name, h.Sum64())
}

// OpenSweepCheckpoint opens (or creates) the sweep checkpoint at path for
// the given parameters. With resume false any existing file is ignored
// and overwritten by the first recorded cell. With resume true the latest
// valid snapshot is loaded (recovering from a torn last write); a missing
// file is a fresh start, but a checkpoint written under different sweep
// parameters is an error — its cells would not match this sweep.
func OpenSweepCheckpoint(path string, p ExpParams, resume bool) (*SweepCheckpoint, error) {
	c := &SweepCheckpoint{
		path:  path,
		state: sweepState{SpecHash: sweepSpecHash(p), Cells: map[string]sweepCell{}},
	}
	if !resume {
		return c, nil
	}
	var st sweepState
	env, src, err := snapshot.LoadRecover(path, snapshot.KindSweep, &st)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return c, nil // nothing to resume: fresh start
		}
		return nil, fmt.Errorf("cohesion: sweep checkpoint: %w", err)
	}
	if st.SpecHash != c.state.SpecHash {
		return nil, fmt.Errorf("cohesion: sweep checkpoint %s was written by a different sweep (spec %s, this sweep %s); delete it or rerun without resume",
			src, st.SpecHash, c.state.SpecHash)
	}
	if st.Cells == nil {
		st.Cells = map[string]sweepCell{}
	}
	c.state = st
	c.seq = env.Seq
	return c, nil
}

// Path is the snapshot file backing this checkpoint.
func (c *SweepCheckpoint) Path() string { return c.path }

// Cells is the number of completed cells currently recorded.
func (c *SweepCheckpoint) Cells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.state.Cells)
}

// Reused is the number of cells served from the cache instead of re-run.
func (c *SweepCheckpoint) Reused() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reused
}

// lookup serves a cell from the cache, reconstructing its Result.
func (c *SweepCheckpoint) lookup(job runJob) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.state.Cells[cellKey(job)]
	if !ok {
		return nil, false
	}
	c.reused++
	return &Result{
		Kernel:         job.kernel,
		Mode:           job.cfg.Mode,
		Config:         job.cfg,
		Stats:          stats.Run{Counters: cell.Stats},
		MemFingerprint: cell.MemFingerprint,
	}, true
}

// record persists a completed cell, rewriting the checkpoint atomically.
func (c *SweepCheckpoint) record(job runJob, res *Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state.Cells[cellKey(job)] = sweepCell{Stats: res.Stats.Counters, MemFingerprint: res.MemFingerprint}
	c.seq++
	if err := snapshot.WriteAtomic(c.path, snapshot.KindSweep, c.seq, c.state); err != nil {
		return fmt.Errorf("cohesion: sweep checkpoint: %w", err)
	}
	return nil
}
