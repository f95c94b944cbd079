package machine

import (
	"errors"
	"strings"
	"testing"

	"cohesion/internal/addr"
	"cohesion/internal/cluster"
	"cohesion/internal/config"
	"cohesion/internal/simerr"
	"cohesion/internal/trace"
)

// A single dropped request with recovery disabled must wedge the machine;
// the watchdog has to detect the stall and fail with a structured
// deadlock diagnostic naming the stuck cluster and the protocol trace.
func TestWatchdogReportsDeadlock(t *testing.T) {
	cfg := hwccCfg(2)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: false, Seed: 1, DropPermille: 1000, MaxDrops: 1}
	cfg.WatchdogCycles = 20_000
	m := newMachine(t, cfg)
	m.Run.Trace = trace.NewSink(64)
	a := addr.Addr(addr.HeapBase)
	program(m, 0, func(c *cluster.Core) {
		_ = ld(c, a)
	})
	err := m.Simulate(50_000_000)
	if err == nil {
		t.Fatal("wedged machine simulated to completion")
	}
	if !errors.Is(err, simerr.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	msg := err.Error()
	for _, want := range []string{"no forward progress", "cl0", "line=", "protocol trace"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// A wedged transaction must be detected even when other cores keep
// completing operations (spin-waiting pollers look like forward
// progress but heal nothing) — the age-based watchdog trigger.
func TestWatchdogCatchesWedgeDespiteSpinners(t *testing.T) {
	cfg := hwccCfg(2)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: false, Seed: 1, DropPermille: 1000, MaxDrops: 1}
	cfg.WatchdogCycles = 20_000
	m := newMachine(t, cfg)
	a := addr.Addr(addr.HeapBase)
	program(m, 0, func(c *cluster.Core) { // wedges on its first fetch/load
		_ = ld(c, a)
	})
	program(m, 8, func(c *cluster.Core) { // spins forever, completing ops
		spinUntil(c, syncWord, 1)
	})
	err := m.Simulate(50_000_000)
	if !errors.Is(err, simerr.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "transaction for line") {
		t.Fatalf("expected the age-based trigger to name the stuck transaction:\n%s", err)
	}
	if !strings.Contains(err.Error(), "cl0") {
		t.Fatalf("diagnostic does not name the wedged cluster:\n%s", err)
	}
}

// Drops without recovery and without the watchdog would hang silently;
// the configuration must be rejected up front.
func TestConfigRejectsDropsWithoutWatchdog(t *testing.T) {
	cfg := hwccCfg(1)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: false, Seed: 1, DropPermille: 10}
	cfg.WatchdogCycles = -1
	if _, err := New(cfg); !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
}

// The drain-time deadlock report must degrade gracefully when no
// transaction state was recorded (cores wedged before issuing anything).
func TestDeadlockErrorFallsBackWhenNothingRecorded(t *testing.T) {
	m := newMachine(t, hwccCfg(1))
	err := m.deadlockError("event queue drained with work outstanding")
	if !errors.Is(err, simerr.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "no outstanding transactions recorded") {
		t.Fatalf("missing fallback line:\n%s", err)
	}
}

// With recovery armed, timeout retransmission must absorb dropped
// requests: the run completes, values are architecturally correct, and
// the stats show both the injected drops and the retries that healed them.
func TestRecoveryFromDroppedRequests(t *testing.T) {
	cfg := hwccCfg(2)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: true, Seed: 3, DropPermille: 300}
	cfg.L2RetryTimeout = 2_000
	m := newMachine(t, cfg)
	a := addr.Addr(addr.HeapBase)
	const n = 16
	var got [n]uint32
	program(m, 0, func(c *cluster.Core) { // producer, cluster 0
		for i := 0; i < n; i++ {
			st(c, a+addr.Addr(32*i), uint32(100+i))
		}
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) { // consumer, cluster 1
		spinUntil(c, syncWord, 1)
		for i := 0; i < n; i++ {
			got[i] = ld(c, a+addr.Addr(32*i))
		}
	})
	simulate(t, m)
	for i, v := range got {
		if v != uint32(100+i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 100+i)
		}
	}
	if m.Run.FaultDrops == 0 {
		t.Fatal("plan injected no drops")
	}
	if m.Run.L2Retries == 0 {
		t.Fatal("drops were injected but no timeout retransmission fired")
	}
}

// When every attempt is dropped the retry budget must run out and the
// run must fail with ErrRetryExhausted rather than spin forever.
func TestRetryExhaustionFails(t *testing.T) {
	cfg := hwccCfg(1)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: true, Seed: 1, DropPermille: 1000}
	cfg.L2RetryTimeout = 100
	cfg.L2RetryLimit = 2
	m := newMachine(t, cfg)
	program(m, 0, func(c *cluster.Core) {
		_ = ld(c, addr.Addr(addr.HeapBase))
	})
	err := m.Simulate(50_000_000)
	if !errors.Is(err, simerr.ErrRetryExhausted) {
		t.Fatalf("err = %v, want ErrRetryExhausted", err)
	}
}

// Duplicate deliveries must be absorbed by the home's transaction-ID
// dedup: directory state mutates at most once per transaction, the run
// verifies, and the duplicates show up in the dedup counter.
func TestDuplicateDeliveriesDeduplicated(t *testing.T) {
	cfg := hwccCfg(2)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: true, Seed: 2, DupPermille: 1000}
	m := newMachine(t, cfg)
	a := addr.Addr(addr.HeapBase)
	var got uint32
	program(m, 0, func(c *cluster.Core) {
		st(c, a, 4321)
		uncStore(c, syncWord, 1)
	})
	program(m, 8, func(c *cluster.Core) {
		spinUntil(c, syncWord, 1)
		got = ld(c, a)
	})
	simulate(t, m)
	if got != 4321 {
		t.Fatalf("consumer read %d, want 4321", got)
	}
	if m.Run.FaultDups == 0 {
		t.Fatal("plan injected no duplicates")
	}
	if m.Run.DupsDropped == 0 {
		t.Fatal("duplicates were injected but the home deduplicated none")
	}
}

// Injected directory-allocation NACKs must be survivable: requesters
// back off and retransmit until the allocation succeeds.
func TestNackRecovery(t *testing.T) {
	cfg := hwccCfg(1)
	cfg.Faults = config.FaultPlan{Enabled: true, Recovery: true, Seed: 5, NackPermille: 500}
	m := newMachine(t, cfg)
	a := addr.Addr(addr.HeapBase)
	const n = 16
	var got [n]uint32
	program(m, 0, func(c *cluster.Core) {
		for i := 0; i < n; i++ {
			st(c, a+addr.Addr(32*i), uint32(7*i+1))
		}
		for i := 0; i < n; i++ {
			got[i] = ld(c, a+addr.Addr(32*i))
		}
	})
	simulate(t, m)
	for i, v := range got {
		if v != uint32(7*i+1) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 7*i+1)
		}
	}
	if m.Run.NacksSent == 0 {
		t.Fatal("plan injected no NACKs")
	}
	if m.Run.NackRetries == 0 {
		t.Fatal("NACKs were sent but no requester retried")
	}
}
