package machine

import (
	"runtime"
	"testing"

	"cohesion/internal/config"
)

// machineSink keeps the machines TestNewCostsWhatARunReaches builds on the
// heap.
var machineSink *Machine

// TestNewCostsWhatARunReaches bounds the bytes machine.New allocates for
// an HWcc machine: the sparse directory's entries and the L3 tag sets are
// allocated as a run first reaches them, so a fresh machine holds little
// beyond its L2s.
func TestNewCostsWhatARunReaches(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   config.Machine
		bound uint64
	}{
		{"Scaled(8)", config.Scaled(8).WithMode(config.HWcc), 896 << 10},
		{"Table 3", config.Table3().WithMode(config.HWcc), 14 << 20},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := New(c.cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		machineSink = m
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s HWcc: New allocated %d bytes in %d allocations", c.name, bytes, after.Mallocs-before.Mallocs)
		if bytes >= c.bound {
			t.Errorf("%s HWcc: New allocated %d bytes, want under %d", c.name, bytes, c.bound)
		}
	}
}
