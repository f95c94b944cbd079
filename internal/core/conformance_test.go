package core

import (
	"fmt"
	"testing"

	"cohesion/internal/config"
	"cohesion/internal/directory"
	"cohesion/internal/msg"
)

// Conformance matrix: every (initial directory state) x (incoming request)
// combination, with the expected probes, grant, and final directory state.
// This is the home controller's MSI transition table, checked exhaustively.

type dirState uint8

const (
	stNone dirState = iota // no entry
	stS1                   // Shared, cluster 0
	stS2                   // Shared, clusters 0 and 1
	stM0                   // Modified, owner cluster 0
)

func (s dirState) String() string {
	return [...]string{"I", "S{0}", "S{0,1}", "M0"}[s]
}

// prepare drives the home into the given initial state for testLine.
func prepare(t *testing.T, h *harness, s dirState) {
	t.Helper()
	h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
		t.Fatalf("prepare should not need probes (state %v)", s)
		return nil
	}
	switch s {
	case stNone:
	case stS1:
		h.send(rd(0, testLine))
	case stS2:
		h.send(rd(0, testLine))
		h.send(rd(1, testLine))
	case stM0:
		h.send(wr(0, testLine))
	}
	h.runAll()
	h.probes = nil
	h.auto = nil
	h.run.ProbesSent = 0
}

type expect struct {
	grant      msg.Grant
	hasData    bool
	probeKinds []msg.ProbeKind // in issue order; ack'd automatically
	finalState dirState
}

func TestConformanceMatrix(t *testing.T) {
	cases := []struct {
		initial dirState
		req     msg.Req
		want    expect
	}{
		// --- reads ---
		{stNone, rd(2, testLine), expect{msg.GrantShared, true, nil, stS1orOther}},
		{stS1, rd(1, testLine), expect{msg.GrantShared, true, nil, stS2}},
		{stS2, rd(2, testLine), expect{msg.GrantShared, true, nil, stS2}}, // superset
		{stM0, rd(1, testLine), expect{msg.GrantShared, true, []msg.ProbeKind{msg.ProbeWB}, stS1orOther}},

		// --- writes ---
		{stNone, wr(2, testLine), expect{msg.GrantModified, true, nil, stMOther}},
		{stS1, wr(0, testLine), expect{msg.GrantModified, false, nil, stM0}},                              // sole-sharer upgrade
		{stS1, wr(1, testLine), expect{msg.GrantModified, true, []msg.ProbeKind{msg.ProbeInv}, stMOther}}, // non-sharer write
		{stS2, wr(0, testLine), expect{msg.GrantModified, false, []msg.ProbeKind{msg.ProbeInv}, stM0}},    // upgrade, other sharer probed
		{stM0, wr(1, testLine), expect{msg.GrantModified, true, []msg.ProbeKind{msg.ProbeWB}, stMOther}},  // ownership transfer

		// --- instruction fetches behave as reads ---
		{stNone, msg.Req{Kind: msg.ReqInstr, Cluster: 2, Line: testLine}, expect{msg.GrantShared, true, nil, stS1orOther}},
		{stM0, msg.Req{Kind: msg.ReqInstr, Cluster: 1, Line: testLine}, expect{msg.GrantShared, true, []msg.ProbeKind{msg.ProbeWB}, stS1orOther}},

		// --- atomics recall whatever is cached, then untrack ---
		{stNone, atomicReq(2), expect{msg.GrantNone, false, nil, stNone}},
		{stS1, atomicReq(2), expect{msg.GrantNone, false, []msg.ProbeKind{msg.ProbeInv}, stNone}},
		{stS2, atomicReq(2), expect{msg.GrantNone, false, []msg.ProbeKind{msg.ProbeInv, msg.ProbeInv}, stNone}},
		{stM0, atomicReq(2), expect{msg.GrantNone, false, []msg.ProbeKind{msg.ProbeWB}, stNone}},
	}

	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%v/%v-cl%d", c.initial, c.req.Kind, c.req.Cluster), func(t *testing.T) {
			h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 4)
			prepare(t, h, c.initial)

			var issued []msg.ProbeKind
			h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
				issued = append(issued, p.Kind)
				if p.Kind == msg.ProbeWB {
					return &msg.ProbeReply{Kind: msg.ReplyData, Mask: 1}
				}
				return &msg.ProbeReply{Kind: msg.ReplyAck}
			}
			box := h.send(c.req)
			h.runAll()
			if !box.done {
				t.Fatal("request never completed")
			}
			if box.resp.Grant != c.want.grant {
				t.Fatalf("grant = %v, want %v", box.resp.Grant, c.want.grant)
			}
			if box.resp.HasData != c.want.hasData {
				t.Fatalf("hasData = %v, want %v", box.resp.HasData, c.want.hasData)
			}
			if len(issued) != len(c.want.probeKinds) {
				t.Fatalf("probes = %v, want %v", issued, c.want.probeKinds)
			}
			for i, k := range c.want.probeKinds {
				if issued[i] != k {
					t.Fatalf("probe %d = %v, want %v (all %v)", i, issued[i], k, issued)
				}
			}
			checkFinal(t, h, c.req, c.want.finalState)
		})
	}
}

// Synthetic final-state markers for requester-dependent outcomes.
const (
	stS1orOther dirState = 100 + iota // Shared with exactly the requester
	stMOther                          // Modified, owner = requester
)

func atomicReq(cluster int) msg.Req {
	return msg.Req{
		Kind: msg.ReqAtomic, Cluster: cluster, Line: testLine,
		Addr: testLine.Base(), Op: msg.AtomicAdd, Operand: 1,
	}
}

func checkFinal(t *testing.T, h *harness, req msg.Req, want dirState) {
	t.Helper()
	e := h.dir().Lookup(testLine)
	switch want {
	case stNone:
		if e != nil {
			t.Fatalf("final entry = %+v, want none", e)
		}
	case stS1orOther:
		if e == nil || e.State != directory.Shared || !e.Sharers.Has(req.Cluster) || e.Sharers.Count() != 1 {
			t.Fatalf("final entry = %+v, want S{requester}", e)
		}
	case stS2:
		if e == nil || e.State != directory.Shared || e.Sharers.Count() < 2 || !e.Sharers.Has(req.Cluster) {
			t.Fatalf("final entry = %+v, want S including requester and another", e)
		}
	case stM0:
		if e == nil || e.State != directory.Modified || e.Owner != 0 {
			t.Fatalf("final entry = %+v, want M owner 0", e)
		}
	case stMOther:
		if e == nil || e.State != directory.Modified || int(e.Owner) != req.Cluster {
			t.Fatalf("final entry = %+v, want M owner %d", e, req.Cluster)
		}
	default:
		t.Fatalf("bad expectation %v", want)
	}
	if e != nil && e.Pinned {
		t.Fatal("entry left pinned after completion")
	}
	if h.home.Pending() {
		t.Fatal("home left pending")
	}
}

// Every terminal state of the matrix must also be reachable repeatedly:
// chain all transitions on one line and end consistent.
func TestConformanceChained(t *testing.T) {
	h := newHarness(t, config.HWcc, config.DirInfinite, 0, 0, 4)
	h.auto = func(p msg.Probe, cluster int) *msg.ProbeReply {
		if p.Kind == msg.ProbeWB {
			return &msg.ProbeReply{Kind: msg.ReplyData, Mask: 1}
		}
		return &msg.ProbeReply{Kind: msg.ReplyAck}
	}
	seq := []msg.Req{
		rd(0, testLine), rd(1, testLine), rd(2, testLine), // S{0,1,2}
		wr(3, testLine), // M3 after 3 invs
		rd(0, testLine), // recall, S{0}
		wr(0, testLine), // silent upgrade
		atomicReq(1),    // recall + untrack
		rd(2, testLine), // fresh S{2}
	}
	for i, req := range seq {
		box := h.send(req)
		h.runAll()
		if !box.done {
			t.Fatalf("step %d (%v) wedged", i, req.Kind)
		}
	}
	e := h.dir().Lookup(testLine)
	if e == nil || e.State != directory.Shared || !e.Sharers.Has(2) || e.Sharers.Count() != 1 {
		t.Fatalf("final entry = %+v", e)
	}
}
