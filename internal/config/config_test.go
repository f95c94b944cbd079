package config

import (
	"errors"
	"testing"

	"cohesion/internal/simerr"
)

func TestTable3MatchesPaper(t *testing.T) {
	m := Table3()
	if m.Cores() != 1024 {
		t.Errorf("cores = %d, want 1024", m.Cores())
	}
	if m.Clusters != 128 || m.CoresPerCluster != 8 {
		t.Errorf("topology = %d x %d", m.Clusters, m.CoresPerCluster)
	}
	if m.L2Size != 64<<10 || m.L2Assoc != 16 {
		t.Errorf("L2 = %d bytes %d-way", m.L2Size, m.L2Assoc)
	}
	if m.L3Size != 4<<20 || m.L3Banks != 32 || m.L3Assoc != 8 {
		t.Errorf("L3 = %d bytes, %d banks, %d-way", m.L3Size, m.L3Banks, m.L3Assoc)
	}
	if m.L3BankSize() != 128<<10 {
		t.Errorf("L3 bank = %d bytes, want 128K", m.L3BankSize())
	}
	if m.L2Lines() != 2048 {
		t.Errorf("L2 lines = %d, want 2048 (paper §4.4)", m.L2Lines())
	}
	if m.DirEntriesPerBank != 16<<10 || m.DirAssoc != 128 {
		t.Errorf("directory = %d entries %d-way", m.DirEntriesPerBank, m.DirAssoc)
	}
	if m.DRAMChannels != 8 {
		t.Errorf("channels = %d", m.DRAMChannels)
	}
	if m.L2Latency != 4 || m.L3Latency != 16 {
		t.Errorf("latencies L2=%d L3=%d", m.L2Latency, m.L3Latency)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Table3 invalid: %v", err)
	}
}

func TestScaledValidAcrossSizes(t *testing.T) {
	for _, clusters := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		m := Scaled(clusters)
		if err := m.Validate(); err != nil {
			t.Errorf("Scaled(%d) invalid: %v", clusters, err)
		}
		if m.Cores() != clusters*8 {
			t.Errorf("Scaled(%d) cores = %d", clusters, m.Cores())
		}
	}
}

func TestWithMode(t *testing.T) {
	m := Scaled(4).WithMode(SWcc)
	if m.Directory != DirNone {
		t.Error("SWcc kept a directory")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("SWcc config invalid: %v", err)
	}
	m = m.WithMode(Cohesion)
	if m.Directory == DirNone {
		t.Error("Cohesion mode has no directory")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Cohesion config invalid: %v", err)
	}
}

func TestWithDirectory(t *testing.T) {
	m := Scaled(4).WithDirectory(DirInfinite, 0, 0)
	if err := m.Validate(); err != nil {
		t.Fatalf("infinite dir invalid: %v", err)
	}
	m = m.WithDirectory(DirLimited4B, 1024, 128)
	if err := m.Validate(); err != nil {
		t.Fatalf("Dir4B invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Machine){
		func(m *Machine) { m.Clusters = 0 },
		func(m *Machine) { m.CoresPerCluster = 0 },
		func(m *Machine) { m.L3Banks = 0 },
		func(m *Machine) { m.L3Banks = 3 },           // not a power of two
		func(m *Machine) { m.DRAMChannels = 3 },      // banks % channels != 0
		func(m *Machine) { m.L2Assoc = 7 },           // lines % assoc != 0
		func(m *Machine) { m.L2Size = 48 },           // fewer lines than ways
		func(m *Machine) { m.Directory = DirNone },   // HWcc without directory
		func(m *Machine) { m.DirEntriesPerBank = 0 }, // sparse without capacity
		func(m *Machine) { m.DirEntriesPerBank = 100; m.DirAssoc = 64 },
		func(m *Machine) { m.StackBytesPerCore = 8 },
	}
	for i, mut := range bad {
		m := Scaled(8)
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateKnobs covers the robustness knobs — fault injection,
// watchdog, retry limits — with named cases: every bad value must come back
// as a wrapped simerr.ErrConfig, never a panic, and the good values must
// pass.
func TestValidateKnobs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
		ok   bool
	}{
		{"default fault plan", func(m *Machine) { m.Faults = DefaultFaultPlan(1) }, true},
		{"disabled plan ignores bad rates", func(m *Machine) { m.Faults.DropPermille = -5 }, true},
		{"negative drop rate", func(m *Machine) { m.Faults.Enabled = true; m.Faults.DropPermille = -1 }, false},
		{"drop rate over 1000", func(m *Machine) { m.Faults.Enabled = true; m.Faults.DropPermille = 1001 }, false},
		{"dup rate over 1000", func(m *Machine) { m.Faults.Enabled = true; m.Faults.DupPermille = 2000 }, false},
		{"negative nack rate", func(m *Machine) { m.Faults.Enabled = true; m.Faults.NackPermille = -1 }, false},
		{"negative delay bound", func(m *Machine) { m.Faults.Enabled = true; m.Faults.DelayMax = -1 }, false},
		{"delay rate without bound", func(m *Machine) { m.Faults.Enabled = true; m.Faults.DelayPermille = 10 }, false},
		{"negative drop cap", func(m *Machine) { m.Faults.Enabled = true; m.Faults.MaxDrops = -1 }, false},
		{"drops with no recovery and no watchdog", func(m *Machine) {
			m.Faults.Enabled = true
			m.Faults.DropPermille = 10
			m.Faults.Recovery = false
			m.WatchdogCycles = -1
		}, false},
		{"drops with no recovery but watchdog armed", func(m *Machine) {
			m.Faults.Enabled = true
			m.Faults.DropPermille = 10
			m.Faults.Recovery = false
			m.WatchdogCycles = 0
		}, true},
		{"watchdog disabled", func(m *Machine) { m.WatchdogCycles = -1 }, true},
		{"negative retry timeout", func(m *Machine) { m.L2RetryTimeout = -1 }, false},
		{"negative retry limit", func(m *Machine) { m.L2RetryLimit = -1 }, false},
		{"oracle enabled", func(m *Machine) { m.OracleEnabled = true }, true},
	}
	for _, tc := range cases {
		m := Scaled(8)
		tc.mut(&m)
		err := m.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("%s: err = %v, want a wrapped simerr.ErrConfig", tc.name, err)
		}
	}
}

func TestModeAndDirKindStrings(t *testing.T) {
	if SWcc.String() != "SWcc" || HWcc.String() != "HWcc" || Cohesion.String() != "Cohesion" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
	for k, want := range map[DirKind]string{
		DirNone: "none", DirInfinite: "full-map (infinite)",
		DirSparse: "sparse full-map", DirLimited4B: "Dir4B sparse",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if DirKind(9).String() != "DirKind(9)" {
		t.Error("unknown dir kind string")
	}
}
