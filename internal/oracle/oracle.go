// Package oracle implements an online coherence conformance checker: a
// shadow sequential memory plus a per-line coherence-domain and ownership
// model that observes every completed load, store, atomic, grant, probe,
// writeback, and Cohesion domain transition through hooks threaded into
// the cluster (L2) and home (directory/L3) controllers.
//
// The oracle is a pure observer — it never alters protocol behaviour or
// timing — and it fails fast: the moment an observed value, MSI state, or
// Figure 6–7 transition is inconsistent with the model it panics with a
// simerr.ErrProtocolInvariant diagnostic, which machine.Simulate recovers
// into an ordinary error. A protocol bug is therefore reported at the
// cycle it manifests, not cycles later at quiescence (where a self-healing
// bug would be invisible to Machine.CheckInvariants).
//
// Checked invariants (see PROTOCOL.md for the mapping to the paper's
// Figures 5–7):
//
//   - Per-location sequential consistency in the HWcc domain: a coherent
//     load or grant must return the globally latest committed value for
//     each word, except where legal SWcc-era staleness survives a clean
//     capture (tracked per word and suppressed until the next
//     serializing write).
//   - MSI legality: at most one Modified holder per line; stores require
//     recorded ownership; probe replies must agree with the holder's
//     recorded dirty set and data.
//   - Value integrity: every grant's fill data, atomic's read value, and
//     merged writeback must agree with the shadow memory, which replays
//     every architecturally-completed write.
//   - Domain legality (Cohesion): HWcc grants only for lines the model
//     believes hardware-coherent, GrantIncoherent only for SWcc-domain
//     lines, and each region-table flip must move the line away from its
//     current (or pending, when flips nest) domain and tear down the old
//     domain's state completely by the time the last pending flip's
//     protocol finishes.
package oracle

import (
	"fmt"
	"sort"

	"cohesion/internal/addr"
	"cohesion/internal/cache"
	"cohesion/internal/config"
	"cohesion/internal/dram"
	"cohesion/internal/event"
	"cohesion/internal/msg"
	"cohesion/internal/region"
	"cohesion/internal/simerr"
)

// holderState is the oracle's belief about one cluster's copy of a line.
type holderState uint8

const (
	holderShared holderState = iota
	holderModified
	holderIncoherent
)

func (s holderState) String() string {
	switch s {
	case holderShared:
		return "Shared"
	case holderModified:
		return "Modified"
	case holderIncoherent:
		return "Incoherent"
	}
	return fmt.Sprintf("holderState(%d)", uint8(s))
}

// holder mirrors one L2's copy of a line: protocol state plus the per-word
// valid/dirty masks and data the oracle expects the cache to return.
type holder struct {
	state holderState
	valid uint8
	dirty uint8
	data  [addr.WordsPerLine]uint32
}

// lineShadow is the oracle's model of one line.
type lineShadow struct {
	// sw is the believed coherence domain (true = SWcc). transDepth counts
	// snooped region-table flips whose Figure 7 protocol has not yet
	// completed; while it is non-zero, domain and freshness checks are
	// suppressed (requests racing a transition may legally be serviced
	// under either domain). Nested flips are legal: the table write of an
	// opposing flip lands while the first line transition is still in
	// flight, and the home serializes the per-line protocols afterwards.
	// transTarget is the domain after the most recent table write (only
	// meaningful while transDepth > 0).
	sw          bool
	transDepth  int
	transTarget bool

	// mem shadows the backing store (L3/DRAM) contents: every observed
	// merge (writeback, flush, atomic) updates it, so grant fill data must
	// always match it exactly.
	mem [addr.WordsPerLine]uint32

	// latest is the globally most recent committed value of each word —
	// the per-location sequential-consistency reference. In the HWcc
	// domain every coherent read must return it; in the SWcc domain it is
	// advisory only (software orders visibility) and is reconciled at
	// domain transitions.
	latest [addr.WordsPerLine]uint32

	// unstable marks words where legal staleness survives in hardware
	// sharers: a clean SWcc copy captured in place by a SW→HW transition
	// may hold data older than memory (paper Fig 7b Case 2b). Freshness
	// checks are suppressed for these words until the next serializing
	// write (Modified store or atomic) invalidates the stale copies.
	unstable uint8

	// inflight records dirty data that an L2 has committed toward memory
	// (a software flush or a published eviction) whose merge has not yet
	// been observed at the home. Such words are architecturally published:
	// a domain-transition reconciliation must treat them as the latest
	// value even though the shadow memory does not hold them yet, and the
	// merge, when it lands, is legal.
	inflight []publish

	holders map[int]*holder
}

// publish is one masked writeback in flight toward the home.
type publish struct {
	mask uint8
	data [addr.WordsPerLine]uint32
}

// transitioning reports whether any domain flip of the line is in flight.
func (s *lineShadow) transitioning() bool { return s.transDepth > 0 }

// publishedValue returns the most recently published, not-yet-merged value
// of a word, if a flush or eviction carrying it is still in flight.
func (s *lineShadow) publishedValue(w int) (uint32, bool) {
	bit := uint8(1) << w
	for i := len(s.inflight) - 1; i >= 0; i-- {
		if s.inflight[i].mask&bit != 0 {
			return s.inflight[i].data[w], true
		}
	}
	return 0, false
}

// consumePublish retires one in-flight published word whose value matches a
// merge just observed at the home, reporting whether one existed.
func (s *lineShadow) consumePublish(w int, v uint32) bool {
	bit := uint8(1) << w
	for i := range s.inflight {
		p := &s.inflight[i]
		if p.mask&bit != 0 && p.data[w] == v {
			p.mask &^= bit
			if p.mask == 0 {
				s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Oracle is the online conformance checker for one machine. All methods
// must be called from the simulation event loop (single-threaded).
type Oracle struct {
	cfg    config.Machine
	q      *event.Queue
	store  *dram.Store
	coarse *region.CoarseTable
	fine   *region.FineTable

	lines map[addr.Line]*lineShadow

	// Checks counts individual invariant evaluations (tests assert the
	// oracle actually observed traffic).
	Checks uint64
}

// New builds an oracle observing the given machine substrate. coarse and
// fine may be nil (non-Cohesion machines).
func New(cfg config.Machine, q *event.Queue, store *dram.Store,
	coarse *region.CoarseTable, fine *region.FineTable) *Oracle {
	return &Oracle{
		cfg:    cfg,
		q:      q,
		store:  store,
		coarse: coarse,
		fine:   fine,
		lines:  make(map[addr.Line]*lineShadow),
	}
}

// fail raises the violation as a protocol-invariant panic; machine.Simulate
// recovers it into an error, so the run fails at the violating cycle.
func (o *Oracle) fail(line addr.Line, format string, args ...any) {
	panic(simerr.Invariant(uint64(o.q.Now()), "oracle", uint64(line.Base()), format, args...))
}

// domainOf computes a line's current coherence domain the same way the
// home controller does (coarse table, then the fine-grain bitmap).
func (o *Oracle) domainOf(line addr.Line) bool {
	switch o.cfg.Mode {
	case config.SWcc:
		return true
	case config.HWcc:
		return false
	}
	base := line.Base()
	if o.coarse != nil && o.coarse.Contains(base) {
		return true
	}
	return o.fine != nil && o.fine.IsSWcc(base)
}

// lineFor returns the shadow for a line, creating it lazily on first
// touch. Lazy creation is sound: before the first observed access nothing
// is cached anywhere, the store holds the architectural value (pre-run
// initialization included), and the region tables hold the current domain
// — any earlier change would itself have been an observed event.
func (o *Oracle) lineFor(line addr.Line) *lineShadow {
	s := o.lines[line]
	if s == nil {
		s = o.newShadow(line, o.domainOf(line))
	}
	return s
}

func (o *Oracle) newShadow(line addr.Line, sw bool) *lineShadow {
	s := &lineShadow{
		sw:      sw,
		mem:     o.store.ReadLine(line),
		holders: make(map[int]*holder),
	}
	s.latest = s.mem
	o.lines[line] = s
	return s
}

// eachHolder visits holders in cluster order so diagnostics and checks are
// deterministic regardless of map iteration order.
func (o *Oracle) eachHolder(s *lineShadow, fn func(cluster int, h *holder)) {
	for c := 0; c < o.cfg.Clusters; c++ {
		if h := s.holders[c]; h != nil {
			fn(c, h)
		}
	}
}

// modifiedOwner reports the cluster the oracle believes owns the line in
// Modified state (-1 if none).
func (o *Oracle) modifiedOwner(s *lineShadow) int {
	owner := -1
	o.eachHolder(s, func(c int, h *holder) {
		if h.state == holderModified && owner < 0 {
			owner = c
		}
	})
	return owner
}

// LoadObserved checks a completed (cached) load: the value must match the
// oracle's copy of the loading cluster's cached word, and a coherent load
// of a stable word must additionally return the globally latest value.
func (o *Oracle) LoadObserved(cluster int, a addr.Addr, v uint32) {
	line := addr.LineOf(a)
	w := addr.WordIndex(a)
	bit := cache.WordBit(a)
	s := o.lineFor(line)
	h := s.holders[cluster]
	if h == nil || h.valid&bit == 0 {
		return // nothing recorded to verify against
	}
	o.Checks++
	if v != h.data[w] {
		o.fail(line, "stale read: cluster %d load of %#x returned %#x but the oracle's copy of its cached word is %#x",
			cluster, uint64(a), v, h.data[w])
	}
	if h.state != holderIncoherent && !s.transitioning() && s.unstable&bit == 0 && v != s.latest[w] {
		o.fail(line, "SC violation: cluster %d coherent load of %#x returned %#x but the latest committed value is %#x",
			cluster, uint64(a), v, s.latest[w])
	}
}

// StoreObserved checks a completed L2 store. A coherent store requires the
// cluster to be the line's sole recorded Modified owner (MSI write
// legality); an incoherent store requires the line to be in the SWcc
// domain. Either way the shadow holder and the latest-value model advance.
func (o *Oracle) StoreObserved(cluster int, a addr.Addr, v uint32, incoherent bool) {
	line := addr.LineOf(a)
	w := addr.WordIndex(a)
	bit := cache.WordBit(a)
	s := o.lineFor(line)
	o.Checks++
	if incoherent {
		if !s.sw && !s.transitioning() && o.cfg.Mode == config.Cohesion {
			o.fail(line, "domain violation: cluster %d performed an incoherent (SWcc) store to %#x but the line is in the HWcc domain",
				cluster, uint64(a))
		}
		h := s.holders[cluster]
		if h == nil {
			h = &holder{state: holderIncoherent}
			s.holders[cluster] = h
		}
		h.state = holderIncoherent
		h.valid |= bit
		h.dirty |= bit
		h.data[w] = v
		s.latest[w] = v
		return
	}
	h := s.holders[cluster]
	if h == nil || h.state != holderModified {
		owner := o.modifiedOwner(s)
		got := "no copy at all"
		if h != nil {
			got = fmt.Sprintf("a %v copy", h.state)
		}
		if owner >= 0 {
			o.fail(line, "double owner: cluster %d stored to %#x in Modified state but the oracle records %s there — cluster %d is the recorded owner",
				cluster, uint64(a), got, owner)
		}
		o.fail(line, "ownership violation: cluster %d stored to %#x in Modified state but the oracle records %s and no owner",
			cluster, uint64(a), got)
	}
	if other := o.modifiedOwner(s); other >= 0 && other != cluster {
		o.fail(line, "double owner: clusters %d and %d both hold %#x in Modified state", other, cluster, uint64(a))
	}
	h.valid |= bit
	h.dirty |= bit
	h.data[w] = v
	s.latest[w] = v
	s.unstable &^= bit
}

// InstallObserved resynchronizes the shadow holder from the real post-fill
// L2 entry. It performs no checks — fill data was already validated at
// grant time, and a wholesale resync heals ghost holders left by
// fault-injected duplicate grants.
func (o *Oracle) InstallObserved(cluster int, e *cache.Entry) {
	s := o.lineFor(e.Line)
	h := s.holders[cluster]
	if h == nil {
		h = &holder{}
		s.holders[cluster] = h
	}
	switch {
	case e.Incoherent:
		h.state = holderIncoherent
	case e.State == cache.StateModified:
		h.state = holderModified
	default:
		h.state = holderShared
	}
	h.valid = e.ValidMask
	h.dirty = e.DirtyMask
	h.data = e.Data
}

// GrantObserved checks a home-side grant at the moment the response is
// sent (value checks here, rather than at install time, sidestep in-flight
// races: the shadow memory is compared at the same event that read it).
func (o *Oracle) GrantObserved(req msg.Req, resp msg.Resp) {
	switch resp.Grant {
	case msg.GrantShared, msg.GrantModified:
		s := o.lineFor(req.Line)
		o.Checks++
		if s.sw && !s.transitioning() {
			o.fail(req.Line, "domain violation: %v granted to cluster %d for a line in the SWcc domain", resp.Grant, req.Cluster)
		}
		requesterOwns := false
		if h := s.holders[req.Cluster]; h != nil && h.state == holderModified {
			requesterOwns = true
		}
		if resp.Grant == msg.GrantModified {
			o.eachHolder(s, func(c int, h *holder) {
				if c != req.Cluster && h.state == holderModified {
					o.fail(req.Line, "double owner: Modified granted to cluster %d while cluster %d still owns the line",
						req.Cluster, c)
				}
			})
		}
		if !resp.HasData {
			return
		}
		for w := 0; w < addr.WordsPerLine; w++ {
			if resp.Data[w] != s.mem[w] {
				o.fail(req.Line, "corrupt fill: %v to cluster %d carries %#x for word %d but the shadow memory holds %#x",
					resp.Grant, req.Cluster, resp.Data[w], w, s.mem[w])
			}
			bit := uint8(1) << w
			if !requesterOwns && !s.transitioning() && s.unstable&bit == 0 && s.mem[w] != s.latest[w] {
				o.fail(req.Line, "stale grant: %v to cluster %d delivers word %d = %#x but the latest committed value is %#x",
					resp.Grant, req.Cluster, w, s.mem[w], s.latest[w])
			}
		}

	case msg.GrantIncoherent:
		s := o.lineFor(req.Line)
		o.Checks++
		if !s.sw && !s.transitioning() {
			o.fail(req.Line, "domain violation: GrantIncoherent to cluster %d for a line in the HWcc domain", req.Cluster)
		}
		if !resp.HasData {
			return
		}
		for w := 0; w < addr.WordsPerLine; w++ {
			if resp.Data[w] != s.mem[w] {
				o.fail(req.Line, "corrupt fill: GrantIncoherent to cluster %d carries %#x for word %d but the shadow memory holds %#x",
					req.Cluster, resp.Data[w], w, s.mem[w])
			}
		}
	}
}

// ProbeApplied checks a cluster's probe reply at the moment it is sent
// (after the L2 entry was mutated) and advances the holder model.
func (o *Oracle) ProbeApplied(cluster int, p msg.Probe, rep msg.ProbeReply) {
	s := o.lineFor(p.Line)
	h := s.holders[cluster]
	switch p.Kind {
	case msg.ProbeInv, msg.ProbeWB:
		if h != nil {
			o.Checks++
			if rep.Kind == msg.ReplyData {
				if rep.Mask != h.dirty {
					o.fail(p.Line, "writeback mask mismatch: cluster %d's %v reply reports dirty words %#08b but the oracle records %#08b",
						cluster, p.Kind, rep.Mask, h.dirty)
				}
				for w := 0; w < addr.WordsPerLine; w++ {
					bit := uint8(1) << w
					if rep.Mask&bit != 0 && h.valid&bit != 0 && rep.Data[w] != h.data[w] {
						o.fail(p.Line, "corrupt writeback: cluster %d's %v reply carries %#x for word %d but the oracle's copy is %#x",
							cluster, p.Kind, rep.Data[w], w, h.data[w])
					}
				}
			} else if h.dirty != 0 {
				o.fail(p.Line, "lost dirty data: cluster %d answered %v with %v but the oracle records dirty words %#08b",
					cluster, p.Kind, rep.Kind, h.dirty)
			}
		}
		delete(s.holders, cluster)

	case msg.ProbeCapture:
		switch rep.Kind {
		case msg.ReplyNotPresent:
			delete(s.holders, cluster)
		case msg.ReplyClean:
			o.Checks++
			if h != nil && h.dirty != 0 {
				o.fail(p.Line, "illegal SWcc→HWcc flip: cluster %d's capture reply claims its incoherent copy is clean but the oracle records dirty words %#08b — a dirty incoherent line must write back or upgrade, never capture clean (Fig 7b)",
					cluster, h.dirty)
			}
			if h == nil {
				h = &holder{}
				s.holders[cluster] = h
			}
			h.state = holderShared
			h.dirty = 0
			// A captured clean copy may legally be older than memory
			// (Fig 7b Case 2b): mark those words so freshness checks stay
			// quiet until the next serializing write removes the copy.
			for w := 0; w < addr.WordsPerLine; w++ {
				bit := uint8(1) << w
				if h.valid&bit != 0 && h.data[w] != s.mem[w] {
					s.unstable |= bit
				}
			}
		case msg.ReplyDirty:
			o.Checks++
			if h == nil || h.dirty == 0 {
				o.fail(p.Line, "fabricated dirty capture: cluster %d's capture reply claims dirty words %#08b but the oracle records a clean or absent copy",
					cluster, rep.Mask)
			}
			if rep.Mask != h.dirty {
				o.fail(p.Line, "capture mask mismatch: cluster %d reports dirty words %#08b but the oracle records %#08b",
					cluster, rep.Mask, h.dirty)
			}
		}

	case msg.ProbeUpgradeOwner:
		if rep.Kind == msg.ReplyNotPresent {
			delete(s.holders, cluster)
			return
		}
		if h == nil {
			h = &holder{}
			s.holders[cluster] = h
		}
		h.state = holderModified
		// The upgraded owner's dirty words are now the latest committed
		// values (Fig 7b Case 4b: single writer upgraded without
		// writeback, so memory is stale for exactly those words). Its
		// clean valid words, conversely, may legally be older than memory
		// — an uncached atomic or store can advance memory behind an
		// incoherent copy — the same surviving staleness as a clean
		// capture (Case 2b), so mark them unstable until a serializing
		// write replaces them.
		for w := 0; w < addr.WordsPerLine; w++ {
			bit := uint8(1) << w
			switch {
			case h.dirty&bit != 0:
				s.latest[w] = h.data[w]
			case h.valid&bit != 0 && h.data[w] != s.mem[w]:
				s.unstable |= bit
			}
		}
	}
}

// EvictObserved checks and retires a holder when its L2 gives up the line.
// published reports whether the cluster surrenders the line to the home
// (capacity eviction, or INV of a hardware-coherent copy): dirty words are
// then about to be written back and must match the oracle's copy. An INV of
// an incoherent line instead discards its dirty words outright (INV
// semantics), so they are neither checked nor recorded as in flight.
func (o *Oracle) EvictObserved(cluster int, e *cache.Entry, published bool) {
	s := o.lineFor(e.Line)
	h := s.holders[cluster]
	if h != nil && !e.Incoherent && e.DirtyMask != 0 {
		o.Checks++
		for w := 0; w < addr.WordsPerLine; w++ {
			bit := uint8(1) << w
			if e.DirtyMask&bit != 0 && h.valid&bit != 0 && e.Data[w] != h.data[w] {
				o.fail(e.Line, "corrupt eviction: cluster %d evicts %#x for word %d but the oracle's copy is %#x",
					cluster, e.Data[w], w, h.data[w])
			}
		}
	}
	if published && e.DirtyMask != 0 {
		s.inflight = append(s.inflight, publish{mask: e.DirtyMask, data: e.Data})
	}
	delete(s.holders, cluster)
}

// WritebackObserved checks a software flush (WB instruction): the written
// data must match the oracle's copy of the flushing cluster's dirty words,
// which become clean (the line stays resident).
func (o *Oracle) WritebackObserved(cluster int, line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
	s := o.lineFor(line)
	s.inflight = append(s.inflight, publish{mask: mask, data: data})
	h := s.holders[cluster]
	if h == nil {
		return
	}
	o.Checks++
	for w := 0; w < addr.WordsPerLine; w++ {
		bit := uint8(1) << w
		if mask&bit != 0 && h.valid&bit != 0 && data[w] != h.data[w] {
			o.fail(line, "corrupt flush: cluster %d writes back %#x for word %d but the oracle's copy is %#x",
				cluster, data[w], w, h.data[w])
		}
	}
	h.dirty &^= mask
}

// MemMerged advances the shadow memory when the home merges a masked
// writeback (eviction, flush, probe reply). In the HWcc domain the merged
// words must be the latest committed values — hardware writebacks can only
// carry data that went through an observed Modified store.
func (o *Oracle) MemMerged(line addr.Line, mask uint8, data [addr.WordsPerLine]uint32) {
	s := o.lineFor(line)
	o.Checks++
	for w := 0; w < addr.WordsPerLine; w++ {
		bit := uint8(1) << w
		if mask&bit == 0 {
			continue
		}
		// A merge may legally deliver a value older than latest when it is
		// the arrival of a writeback published earlier (e.g. a flush issued
		// mid-transition whose line has since been upgraded and re-written):
		// match it against the in-flight set, retiring the record.
		published := s.consumePublish(w, data[w])
		if !published && !s.sw && !s.transitioning() && s.unstable&bit == 0 && data[w] != s.latest[w] {
			o.fail(line, "corrupt writeback merge: word %d merges %#x but the latest committed value is %#x",
				w, data[w], s.latest[w])
		}
		s.mem[w] = data[w]
		if s.sw || s.transitioning() {
			s.latest[w] = data[w]
		}
	}
}

// AtomicObserved checks an uncached atomic or uncached store performed at
// the L3: the read-modify-write's old value must be the shadow memory's,
// and — for hardware-coherent lines, which are recalled first — also the
// globally latest value. The new value becomes both.
func (o *Oracle) AtomicObserved(a addr.Addr, old, next uint32) {
	line := addr.LineOf(a)
	w := addr.WordIndex(a)
	bit := cache.WordBit(a)
	s := o.lineFor(line)
	o.Checks++
	if old != s.mem[w] {
		o.fail(line, "corrupt atomic: read %#x at %#x but the shadow memory holds %#x", old, uint64(a), s.mem[w])
	}
	if !s.sw && !s.transitioning() && s.unstable&bit == 0 && old != s.latest[w] {
		o.fail(line, "stale atomic: read %#x at %#x but the latest committed value is %#x — the line was not recalled",
			old, uint64(a), s.latest[w])
	}
	s.mem[w] = next
	s.latest[w] = next
	if !s.sw {
		s.unstable &^= bit
	}
}

// UncLoadObserved checks an uncached load: it reads memory directly (no
// recall), so it must return exactly the shadow memory's word.
func (o *Oracle) UncLoadObserved(a addr.Addr, v uint32) {
	line := addr.LineOf(a)
	s := o.lineFor(line)
	o.Checks++
	if v != s.mem[addr.WordIndex(a)] {
		o.fail(line, "corrupt uncached load: read %#x at %#x but the shadow memory holds %#x",
			v, uint64(a), s.mem[addr.WordIndex(a)])
	}
}

// TransitionStart records a snooped region-table flip for one line, before
// its Figure 7 protocol begins. The flip must move the line away from its
// effective domain: the committed domain, or — when flips are nested (an
// opposing table write landing while an earlier transition is still in
// flight, which the home serializes afterwards) — the pending target.
func (o *Oracle) TransitionStart(line addr.Line, toSW bool) {
	s := o.lines[line]
	if s == nil {
		// First observation of this line is its own transition. The table
		// bit is already flipped when the snoop fires, so domainOf would
		// read the post-flip domain; the pre-flip domain is by definition
		// the opposite of the target.
		s = o.newShadow(line, !toSW)
	}
	o.Checks++
	effective := s.sw
	if s.transDepth > 0 {
		effective = s.transTarget
	}
	if effective == toSW {
		o.fail(line, "redundant transition: table flip to %s but the oracle already believes the line is headed to %s",
			domainName(toSW), domainName(effective))
	}
	s.transDepth++
	s.transTarget = toSW
}

// TransitionDone checks the completed Figure 7 protocol: a flip to SWcc
// must have torn down every coherent copy (Fig 7a), a flip to HWcc must
// have captured, upgraded, or invalidated every incoherent copy (Fig 7b).
// The latest-value model is reconciled with the post-transition state.
// With nested flips, only the final completion is checked — intermediate
// states are legally mixed, since later table writes are already visible
// while earlier per-line protocols run.
func (o *Oracle) TransitionDone(line addr.Line, toSW bool) {
	s := o.lineFor(line)
	o.Checks++
	if s.transDepth == 0 {
		o.fail(line, "unmatched transition completion: a flip to %s finishes but none is in flight", domainName(toSW))
	}
	s.transDepth--
	if s.transDepth > 0 {
		return // a nested opposing flip is still pending; check at its end
	}
	toSW = s.transTarget
	if toSW {
		o.eachHolder(s, func(c int, h *holder) {
			if h.state != holderIncoherent {
				o.fail(line, "incomplete HWcc→SWcc transition: cluster %d still holds the line in %v after the teardown (Fig 7a)",
					c, h.state)
			}
		})
		// The committed value of each word is the shadow memory's, unless a
		// published writeback is still in flight toward it.
		for w := 0; w < addr.WordsPerLine; w++ {
			if v, ok := s.publishedValue(w); ok {
				s.latest[w] = v
			} else {
				s.latest[w] = s.mem[w]
			}
		}
		s.unstable = 0
		s.sw = true
	} else {
		o.eachHolder(s, func(c int, h *holder) {
			if h.state == holderIncoherent {
				o.fail(line, "incomplete SWcc→HWcc transition: cluster %d still holds the line incoherently after the capture (Fig 7b)",
					c)
			}
		})
		// Precedence per word: a surviving owner's dirty copy is newest;
		// then a published writeback still in flight (a flush issued during
		// the transition commits its value even though the merge lands
		// later); then the shadow memory.
		owner := o.modifiedOwner(s)
		for w := 0; w < addr.WordsPerLine; w++ {
			bit := uint8(1) << w
			switch {
			case owner >= 0 && s.holders[owner].dirty&bit != 0:
				s.latest[w] = s.holders[owner].data[w]
			default:
				if v, ok := s.publishedValue(w); ok {
					s.latest[w] = v
				} else {
					s.latest[w] = s.mem[w]
				}
			}
		}
		s.sw = false
	}
}

// CheckDomains verifies at quiescence that the region tables agree with
// the oracle's domain model for every line it tracked, and that no
// transition is still marked in flight. isSW is the machine's combined
// coarse+fine table lookup. Region-table lines themselves are skipped
// (their domain bits are ordinary data to the tables).
func (o *Oracle) CheckDomains(isSW func(addr.Line) bool) error {
	var bad error
	// Deterministic order: scan by sorted line address.
	lines := make([]addr.Line, 0, len(o.lines))
	for line := range o.lines {
		lines = append(lines, line)
	}
	sortLines(lines)
	for _, line := range lines {
		s := o.lines[line]
		if s.transitioning() {
			return fmt.Errorf("oracle: line %#x still mid-transition at quiescence", uint64(line.Base()))
		}
		if o.cfg.Mode != config.Cohesion || region.InTableRange(line.Base()) {
			continue
		}
		if got := isSW(line); got != s.sw {
			bad = fmt.Errorf("oracle: line %#x region table says SWcc=%v but the oracle's domain model says SWcc=%v",
				uint64(line.Base()), got, s.sw)
			break
		}
	}
	return bad
}

func sortLines(lines []addr.Line) {
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
}

func domainName(sw bool) string {
	if sw {
		return "SWcc"
	}
	return "HWcc"
}
