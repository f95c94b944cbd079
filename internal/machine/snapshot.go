package machine

import (
	"sort"

	"cohesion/internal/cache"
	"cohesion/internal/directory"
	"cohesion/internal/snapshot"
)

// SetCheckpointFunc installs the callback SimulateCtx invokes whenever
// the run controller's deterministic checkpoint schedule (CheckpointEvery
// / CheckpointAt in runctl.Limits) comes due, and once more when a
// lifecycle stop (budget, cancellation) ends the run. It runs at the
// between-events boundary — the machine is quiescent mid-loop, no event
// is executing — so the callback may take a consistent Digests vector.
// A non-nil error from the callback aborts the run.
func (m *Machine) SetCheckpointFunc(fn func(events, cycle uint64) error) { m.ckpt = fn }

// Digests captures the per-layer digest vector of the machine's complete
// data state at the current between-events boundary. It never mutates
// the machine (in particular it does not drain dirty cache lines), so it
// is safe to call mid-run from a checkpoint callback.
func (m *Machine) Digests() snapshot.Digests {
	d := snapshot.Digests{
		Events:   m.Q.Fired(),
		Cycle:    uint64(m.Q.Now()),
		QueueLen: uint64(m.Q.Pending()),
		Mem:      m.Store.Fingerprint(),
		Stats:    m.Run.Digest(),
	}

	h := snapshot.NewHasher()
	for _, cl := range m.collectL2() {
		mixCacheLine(h, cl)
	}
	d.L2 = h.Sum()

	h = snapshot.NewHasher()
	for _, e := range m.collectDir() {
		mixDirEntry(h, e)
	}
	d.Dir = h.Sum()

	h = snapshot.NewHasher()
	if m.Coarse != nil {
		for _, r := range m.Coarse.Ranges() {
			h.U64(uint64(r.Base))
			h.U64(r.Size)
		}
	}
	d.Region = h.Sum()

	if m.oracle != nil {
		d.Oracle = m.oracle.Fingerprint()
	}

	h = snapshot.NewHasher()
	for _, line := range m.inflightReport() {
		h.String(line)
	}
	d.Inflight = h.Sum()
	return d
}

// CaptureState serializes the machine's complete data state at the
// current between-events boundary for a divergence dump (checkpoints
// record only Digests): the DRAM image, every valid L2 entry (dirty and
// clean), every allocated directory entry, the coarse region table (the
// fine-grain bitmap lives inside the DRAM image), the outstanding-
// transaction report, cumulative stats, and the digest vector over all
// of it. Like Digests it never mutates the machine.
func (m *Machine) CaptureState() *snapshot.MachineState {
	st := &snapshot.MachineState{
		Events:   m.Q.Fired(),
		Cycle:    uint64(m.Q.Now()),
		Digests:  m.Digests(),
		L2:       m.collectL2(),
		Dir:      m.collectDir(),
		Inflight: m.inflightReport(),
		Stats:    m.Run.Snapshot(),
	}
	for _, line := range m.Store.Lines() {
		st.Mem = append(st.Mem, snapshot.MemLine{Line: uint64(line), Data: m.Store.ReadLine(line)})
	}
	if m.Coarse != nil {
		for _, r := range m.Coarse.Ranges() {
			st.Coarse = append(st.Coarse, snapshot.RegionRange{Base: uint64(r.Base), Size: r.Size})
		}
	}
	return st
}

// collectL2 gathers every valid L2 entry across clusters, sorted by
// (cluster, line) so the serialization is independent of cache-internal
// iteration order.
func (m *Machine) collectL2() []snapshot.CacheLine {
	var out []snapshot.CacheLine
	for cid, cl := range m.Clusters {
		cl.L2().ForEach(func(e *cache.Entry) {
			out = append(out, snapshot.CacheLine{
				Cluster:    cid,
				Line:       uint64(e.Line),
				State:      e.State,
				Incoherent: e.Incoherent,
				Pinned:     e.Pinned,
				ValidMask:  e.ValidMask,
				DirtyMask:  e.DirtyMask,
				Data:       e.Data,
			})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cluster != out[j].Cluster {
			return out[i].Cluster < out[j].Cluster
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// collectDir gathers every allocated directory entry across home banks,
// sorted by (bank, line); the infinite directory iterates a map, so the
// sort is what makes the serialization deterministic.
func (m *Machine) collectDir() []snapshot.DirEntry {
	var out []snapshot.DirEntry
	for b, h := range m.Homes {
		d := h.Directory()
		if d == nil {
			continue
		}
		bank := b
		d.ForEach(func(e *directory.Entry) {
			var sharers []int
			e.Sharers.ForEach(func(c int) { sharers = append(sharers, c) })
			out = append(out, snapshot.DirEntry{
				Bank:      bank,
				Line:      uint64(e.Line),
				State:     uint8(e.State),
				Owner:     e.Owner,
				Sharers:   sharers,
				Broadcast: e.Broadcast,
				Pinned:    e.Pinned,
			})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bank != out[j].Bank {
			return out[i].Bank < out[j].Bank
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// inflightReport is the deterministic outstanding-transaction report
// (cluster order then bank order, each internally deterministic).
func (m *Machine) inflightReport() []string {
	now := m.Q.Now()
	var lines []string
	for _, cl := range m.Clusters {
		lines = append(lines, cl.StuckReport(now)...)
	}
	for _, h := range m.Homes {
		lines = append(lines, h.StuckReport(now)...)
	}
	return lines
}

func mixCacheLine(h *snapshot.Hasher, c snapshot.CacheLine) {
	h.Int(c.Cluster)
	h.U64(c.Line)
	h.U8(c.State)
	h.Bool(c.Incoherent)
	h.Bool(c.Pinned)
	h.U8(c.ValidMask)
	h.U8(c.DirtyMask)
	for _, w := range c.Data {
		h.U32(w)
	}
}

func mixDirEntry(h *snapshot.Hasher, e snapshot.DirEntry) {
	h.Int(e.Bank)
	h.U64(e.Line)
	h.U8(e.State)
	h.Int(e.Owner)
	h.Int(len(e.Sharers))
	for _, c := range e.Sharers {
		h.Int(c)
	}
	h.Bool(e.Broadcast)
	h.Bool(e.Pinned)
}
