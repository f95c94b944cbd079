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
// histograms are not persisted, which is why runAll neither serves nor
// records LatencyTable's cells.)
type sweepCell struct {
	Stats          stats.Counters `json:"stats"`
	MemFingerprint uint64         `json:"mem_fingerprint"`
}

// sweepState is the payload of a KindSweep snapshot file.
type sweepState struct {
	Cells map[string]sweepCell `json:"cells"`
}

// SweepCheckpoint caches completed sweep-cell results on disk so an
// interrupted or degraded experiment sweep resumes only its failed and
// unfinished cells. Attach one to ExpParams.Checkpoint: every cell that
// completes is recorded (atomic temp-file+rename write per cell), and
// every cell already recorded is served from the cache — its table row is
// bit-identical to the original run's, since the run's counters and
// memory fingerprint are persisted. A cell is keyed by the RunSpec that
// determines its result, so every figure that runs the identical
// simulation shares it, and a sweep with other parameters is never
// served another's cells.
type SweepCheckpoint struct {
	path string

	mu     sync.Mutex
	state  sweepState
	seq    uint64
	reused int
}

// cellKey names one sweep cell: its kernel and an FNV digest of its
// RunSpec, the identity a run checkpoint records. Limits are not part of
// it: a budget decides whether a run completes, never what a completed
// run measures.
func cellKey(rc RunConfig) string {
	b, _ := json.Marshal(specOf(rc)) // ints, bools and strings only: cannot fail
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%s/%016x", rc.Kernel, h.Sum64())
}

// OpenSweepCheckpoint opens (or creates) the sweep checkpoint at path.
// With resume false any existing file is ignored and overwritten by the
// first recorded cell. With resume true the latest valid snapshot is
// loaded (recovering from a torn last write); a missing file is a fresh
// start. Cells recorded under another RunSpec, or under an older build's
// keys, load but are never served.
func OpenSweepCheckpoint(path string, resume bool) (*SweepCheckpoint, error) {
	c := &SweepCheckpoint{path: path, state: sweepState{Cells: map[string]sweepCell{}}}
	if !resume {
		return c, nil
	}
	var st sweepState
	env, _, err := snapshot.LoadRecover(path, snapshot.KindSweep, &st)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return c, nil // nothing to resume: fresh start
		}
		return nil, fmt.Errorf("cohesion: sweep checkpoint: %w", err)
	}
	if st.Cells != nil {
		c.state = st
	}
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
func (c *SweepCheckpoint) lookup(rc RunConfig) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell, ok := c.state.Cells[cellKey(rc)]
	if !ok {
		return nil, false
	}
	c.reused++
	return &Result{
		Kernel:         rc.Kernel,
		Mode:           rc.Machine.Mode,
		Config:         rc.Machine,
		Stats:          stats.Run{Counters: cell.Stats},
		MemFingerprint: cell.MemFingerprint,
	}, true
}

// record persists a completed cell, rewriting the checkpoint atomically.
func (c *SweepCheckpoint) record(rc RunConfig, res *Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state.Cells[cellKey(rc)] = sweepCell{Stats: res.Stats.Counters, MemFingerprint: res.MemFingerprint}
	c.seq++
	if err := snapshot.WriteAtomic(c.path, snapshot.KindSweep, c.seq, c.state); err != nil {
		return fmt.Errorf("cohesion: sweep checkpoint: %w", err)
	}
	return nil
}
