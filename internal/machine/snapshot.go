package machine

import (
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
//
// The L2 and directory layers are one pass over the live entries: each
// entry is hashed once, keyed by its cluster or bank and line, and the
// layer digest is the sum of those hashes, so no list is built or sorted
// and the walk's order does not matter.
func (m *Machine) Digests() snapshot.Digests {
	d := snapshot.Digests{
		Events:   m.Q.Fired(),
		Cycle:    uint64(m.Q.Now()),
		QueueLen: uint64(m.Q.Pending()),
		Mem:      m.Store.Fingerprint(),
		Stats:    m.Run.Digest(),
	}
	for cid, cl := range m.Clusters {
		cl.L2().ForEach(func(e *cache.Entry) { d.L2 += l2EntryHash(cid, e) })
	}
	for b, h := range m.Homes {
		if dir := h.Directory(); dir != nil {
			dir.ForEach(func(e *directory.Entry) { d.Dir += dirEntryHash(b, e) })
		}
	}

	h := snapshot.NewHasher()
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

// l2EntryHash is one valid L2 entry's term of the L2 digest: its cluster,
// line, state, domain and pin bits, both masks and every data word.
func l2EntryHash(cluster int, e *cache.Entry) uint64 {
	h := snapshot.NewHasher()
	h.U64(uint64(e.Line))
	h.U64(uint64(uint32(cluster)) | uint64(e.State)<<32 | uint64(e.ValidMask)<<40 | uint64(e.DirtyMask)<<48 |
		snapshot.Flag(e.Incoherent)<<56 | snapshot.Flag(e.Pinned)<<57)
	h.Line(&e.Data)
	return h.Sum()
}

// dirEntryHash is one allocated directory entry's term of the directory
// digest: its bank, line, state, owner, sharer words, broadcast and pin
// bits.
func dirEntryHash(bank int, e *directory.Entry) uint64 {
	h := snapshot.NewHasher()
	h.U64(uint64(e.Line))
	h.U64(uint64(uint32(bank)) | uint64(e.State)<<32 | snapshot.Flag(e.Broadcast)<<40 | snapshot.Flag(e.Pinned)<<41)
	h.U64(uint64(int64(e.Owner)))
	for _, w := range e.Sharers {
		h.U64(w)
	}
	return h.Sum()
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
