package core

import (
	"cohesion/internal/addr"
	"cohesion/internal/config"
	"cohesion/internal/directory"
	"cohesion/internal/msg"
	"cohesion/internal/region"
	"cohesion/internal/trace"
)

// domainOf decides which coherence domain the dispatched line (which has
// no directory entry) belongs to, then resumes via domainDecided. In SWcc
// mode everything is software-managed; in HWcc mode everything is
// hardware-managed; under Cohesion the coarse-grain region table is
// consulted for free (it is a small on-die structure accessed in parallel
// with the directory), then the fine-grain in-memory bitmap, whose lookup
// costs at least an L3 access (paper §3.4).
func (h *Home) domainOf(s *svc) {
	switch h.cfg.Mode {
	case config.SWcc:
		h.domainDecided(s, true)
		return
	case config.HWcc:
		h.domainDecided(s, false)
		return
	}
	base := s.req.Line.Base()
	if h.coarse != nil && h.coarse.Contains(base) {
		h.edge(trace.EdgeCohDomainCoarse, s.req.Line, s.req.Cluster)
		h.domainDecided(s, true)
		return
	}
	if h.fine == nil {
		h.domainDecided(s, false)
		return
	}
	s.tableWord = region.TblWordAddr(base, h.cfg.L3Banks)
	h.tableAccess(s)
}

// tableRead finishes a fine-grain table consultation: it reads the word
// (now resident or timed), extracts the line's bit, and resumes dispatch.
func (h *Home) tableRead(s *svc) {
	base := s.req.Line.Base()
	word := h.store.ReadWord(s.tableWord)
	sw := word&(1<<region.TblBitIndex(base)) != 0
	if sw {
		h.edge(trace.EdgeCohDomainFineSW, s.req.Line, s.req.Cluster)
	} else {
		h.edge(trace.EdgeCohDomainFineHW, s.req.Line, s.req.Cluster)
	}
	h.domainDecided(s, sw)
}

// transitionChanged runs the coherence-domain transitions for every table
// bit flipped by a snooped write to table word wordAddr, serialized
// line-by-line ("If a request for multiple line state transitions occurs,
// the directory serializes the requests line-by-line", paper §3.6), then
// runs cont.
func (h *Home) transitionChanged(wordAddr addr.Addr, changed, newWord uint32, cont func(raced bool)) {
	var lines []addr.Line
	var toSW []bool
	for bit := uint(0); bit < 32; bit++ {
		if changed&(1<<bit) == 0 {
			continue
		}
		lines = append(lines, region.InvTblAddr(addr.WordAlign(wordAddr), bit, h.cfg.L3Banks))
		toSW = append(toSW, newWord&(1<<bit) != 0)
	}
	if h.orc != nil {
		// Mark every affected line transitioning up front: the table write
		// is already visible, so a racing request for line i may be
		// serviced under the new domain before its serialized transition
		// protocol runs.
		for i := range lines {
			h.orc.TransitionStart(lines[i], toSW[i])
		}
	}
	anyRace := false
	var step func(i int)
	step = func(i int) {
		if i == len(lines) {
			cont(anyRace)
			return
		}
		next := func(raced bool) {
			anyRace = anyRace || raced
			step(i + 1)
		}
		if toSW[i] {
			h.transitionToSW(lines[i], next)
		} else {
			h.transitionToHW(lines[i], next)
		}
	}
	step(0)
}

// acquireLine grabs the transaction slot of a data line for a transition,
// retrying while a regular request holds it.
func (h *Home) acquireLine(line addr.Line, body func()) {
	if _, busy := h.txns.Get(line); busy {
		h.edge(trace.EdgeCohWaitsTxn, line, -1)
		h.q.After(retryDelay, func() { h.acquireLine(line, body) })
		return
	}
	h.txns.Put(line, h.allocTxn())
	body()
}

// transitionToSW implements HWcc => SWcc (paper Figure 7a): any directory
// state for the line is torn down — sharers invalidated (Case 2a) or the
// owner's dirty data written back (Case 3a) — leaving the current value in
// the L3/memory and the line in no L2. Case 1a (no entry) needs no action
// beyond the already-written table bit.
func (h *Home) transitionToSW(line addr.Line, cont func(raced bool)) {
	h.run.TransitionsToSW++
	h.acquireLine(line, func() {
		finish := func() {
			if h.orc != nil {
				h.orc.TransitionDone(line, true)
			}
			h.completeTxn(line)
			cont(false)
		}
		e := h.dir.Lookup(line)
		if e == nil {
			h.edge(trace.EdgeCohToSWNoEntry, line, -1)
			finish()
			return
		}
		if e.State == directory.Modified {
			h.edge(trace.EdgeCohToSWRecallM, line, -1)
		} else {
			h.edge(trace.EdgeCohToSWInvShared, line, -1)
		}
		e.Pinned = true
		h.recallEntry(line, e, finish)
	})
}

// transitionToHW implements SWcc => HWcc (paper Figure 7b): the directory
// broadcasts a "clean capture" probe to every cluster. Clean copies become
// hardware sharers in place (Cases 1b/2b); a single dirty copy with no
// other sharers is upgraded to owner without a writeback (Case 4b's
// optimization); mixed or multiple dirty copies are written back and
// invalidated, with the L3 merging disjoint write sets (Case 3b), and
// overlapping dirty words — the paper's Case 5b software race — are
// counted and merged in cluster order.
func (h *Home) transitionToHW(line addr.Line, cont func(raced bool)) {
	h.run.TransitionsToHW++
	h.acquireLine(line, func() {
		broadcast := func() {
			replies := make([]msg.ProbeReply, 0, h.cfg.Clusters)
			pending := h.cfg.Clusters
			for c := 0; c < h.cfg.Clusters; c++ {
				h.sendProbe(c, msg.Probe{Kind: msg.ProbeCapture, Line: line}, func(rep msg.ProbeReply) {
					replies = append(replies, rep)
					pending--
					if pending == 0 {
						h.captureDecide(line, replies, cont)
					}
				})
			}
		}
		// The table bit is visible the moment it is written, so a request
		// serialized ahead of this transition may already have read the new
		// domain and created a directory entry (hardware grants) for the
		// line. Tear that state down first: recalled copies land in the L3,
		// and only pre-flip incoherent copies remain for the capture to see.
		if e := h.dir.Lookup(line); e != nil {
			h.edge(trace.EdgeCohToHWRecallFirst, line, -1)
			e.Pinned = true
			h.recallEntry(line, e, broadcast)
			return
		}
		broadcast()
	})
}

// captureDecide is the second phase of a SW=>HW transition, run once every
// cluster has answered the capture broadcast.
func (h *Home) captureDecide(line addr.Line, replies []msg.ProbeReply, cont func(raced bool)) {
	var clean, dirty []msg.ProbeReply
	for _, rep := range replies {
		switch rep.Kind {
		case msg.ReplyClean:
			clean = append(clean, rep)
		case msg.ReplyDirty:
			dirty = append(dirty, rep)
		}
	}
	raced := false
	finish := func() {
		if h.orc != nil {
			h.orc.TransitionDone(line, false)
		}
		h.completeTxn(line)
		cont(raced)
	}

	switch {
	case len(dirty) == 0 && len(clean) == 0:
		// Cached nowhere (Figure 7b Case 1b): no entry needed until the
		// next request allocates one.
		h.edge(trace.EdgeCohToHWUncached, line, -1)
		finish()

	case len(dirty) == 0:
		// Clean copies only (Case 2b): they already cleared their
		// incoherent bits; record them as hardware sharers.
		h.edge(trace.EdgeCohToHWClean, line, -1)
		h.allocEntry(line, nil, func(e *directory.Entry) {
			e.State = directory.Shared
			for _, rep := range clean {
				h.addSharer(e, rep.Cluster)
			}
			finish()
		})

	case len(dirty) == 1 && len(clean) == 0:
		// Single dirty writer (Case 4b): upgrade in place, no writeback.
		owner := dirty[0].Cluster
		h.edge(trace.EdgeCohToHWUpgrade, line, owner)
		h.allocEntry(line, nil, func(e *directory.Entry) {
			e.State = directory.Modified
			e.Owner = int32(owner)
			h.addSharer(e, owner)
			h.sendProbe(owner, msg.Probe{Kind: msg.ProbeUpgradeOwner, Line: line}, func(rep msg.ProbeReply) {
				if rep.Kind == msg.ReplyNotPresent {
					// The owner evicted between phases; its dirty eviction
					// has already merged (link FIFO), so the line is simply
					// uncached now.
					h.dir.Remove(line)
				}
				finish()
			})
		})

	default:
		// Mixed sharers or multiple writers (Cases 3b/5b): write back every
		// dirty copy, invalidate every clean copy; the per-word masks let
		// the L3 merge disjoint write sets. Overlap is the Case 5b race.
		h.edge(trace.EdgeCohToHWMerge, line, -1)
		var seen uint8
		for _, rep := range dirty {
			if seen&rep.Mask != 0 {
				h.run.OverlapRaces++
				raced = true
				h.edge(trace.EdgeCohToHWOverlap, line, rep.Cluster)
			}
			seen |= rep.Mask
		}
		pending := len(dirty) + len(clean)
		step := func(rep msg.ProbeReply) {
			h.absorbReplyData(line, rep)
			pending--
			if pending == 0 {
				finish()
			}
		}
		for _, rep := range dirty {
			h.sendProbe(rep.Cluster, msg.Probe{Kind: msg.ProbeWB, Line: line}, step)
		}
		for _, rep := range clean {
			h.sendProbe(rep.Cluster, msg.Probe{Kind: msg.ProbeInv, Line: line}, step)
		}
	}
}
