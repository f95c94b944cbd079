package oracle

import (
	"cohesion/internal/addr"
	"cohesion/internal/snapshot"
)

// Fingerprint digests the oracle's complete shadow state — per-line
// domain beliefs, in-flight transitions, shadow memory, latest-value
// references, staleness masks, in-flight publishes, and per-cluster
// holder models — plus the cumulative check count. Each shadow line is
// hashed once and the line hashes are summed, so the digest does not
// depend on map iteration order. The checkpoint layer uses it to prove a
// replayed run rebuilt the exact oracle state the original run had at
// the same event count.
func (o *Oracle) Fingerprint() uint64 {
	h := snapshot.NewHasher()
	h.U64(o.Checks)
	h.U64(uint64(len(o.lines)))
	sum := h.Sum()
	for l, s := range o.lines {
		sum += o.lineHash(l, s)
	}
	return sum
}

// lineHash is one shadow line's term of the fingerprint.
func (o *Oracle) lineHash(l addr.Line, s *lineShadow) uint64 {
	h := snapshot.NewHasher()
	h.U64(uint64(l))
	h.U64(uint64(uint32(s.transDepth)) | uint64(s.unstable)<<32 | snapshot.Flag(s.sw)<<40 | snapshot.Flag(s.transTarget)<<41)
	h.Line(&s.mem)
	h.Line(&s.latest)
	h.U64(uint64(len(s.inflight)))
	for i := range s.inflight {
		p := &s.inflight[i]
		h.U64(uint64(p.mask))
		h.Line(&p.data)
	}
	o.eachHolder(s, func(c int, hd *holder) {
		h.U64(uint64(uint32(c)) | uint64(hd.state)<<32 | uint64(hd.valid)<<40 | uint64(hd.dirty)<<48)
		h.Line(&hd.data)
	})
	return h.Sum()
}
