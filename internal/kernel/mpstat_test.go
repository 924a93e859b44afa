package kernel

import (
	"fmt"
	"testing"
)

// TestMPStatGolden pins the per-CPU breakdown CPUStats reports — every
// column of an mpstat table — in all four shapes: with and without a CPU
// unplugged before the run, with and without tick chains parking.
func TestMPStatGolden(t *testing.T) {
	cpu0 := CPUStat{CPU: 0, WorkCycles: 12000700, Dispatches: 2, Online: true}
	for _, tc := range []struct {
		name                string
		ticklessOff, unplug bool
		want                [3]CPUStat
	}{
		{"plain", true, false, [3]CPUStat{cpu0,
			{CPU: 1, IdleCycles: 12004595, Dispatches: 1, Online: true},
			{CPU: 2, IdleCycles: 12003935, Dispatches: 1, Online: true}}},
		{"hotplug", true, true, [3]CPUStat{cpu0,
			{CPU: 1, IdleCycles: 12003935, Dispatches: 2, Online: true},
			{CPU: 2, Offlines: 1, OfflineCycles: 12006400}}},
		{"tickless", false, false, [3]CPUStat{cpu0,
			{CPU: 1, IdleCycles: 12004595, Dispatches: 1, Online: true, TicklessCycles: 8005403},
			{CPU: 2, IdleCycles: 12003935, Dispatches: 1, Online: true, TicklessCycles: 8004406}}},
		{"hotplug+tickless", false, true, [3]CPUStat{cpu0,
			{CPU: 1, IdleCycles: 12003935, Dispatches: 2, Online: true, TicklessCycles: 8005403},
			{CPU: 2, Offlines: 1, OfflineCycles: 12006400}}},
	} {
		m := NewMachine(Config{CPUs: 3, SMP: true, Seed: 42, NewScheduler: elscFactory,
			MaxCycles: 50 * DefaultHz, TicklessOff: tc.ticklessOff})
		p := m.Spawn("solo", nil, computeLoop(3, DefaultTickCycles))
		if tc.unplug {
			if err := m.OfflineCPU(2); err != nil {
				t.Fatal(err)
			}
		}
		m.Run(func() bool { return p.Exited() })
		for i, got := range m.CPUStats() {
			if got != tc.want[i] {
				t.Errorf("%s cpu%d:\n got %+v\nwant %+v", tc.name, i, got, tc.want[i])
			}
			util, want := fmt.Sprintf("%.1f%%", 100*got.Utilization(uint64(m.Now()))), "0.0%"
			if i == 0 {
				want = "100.0%"
			}
			if util != want {
				t.Errorf("%s cpu%d: utilization %s, want %s", tc.name, i, util, want)
			}
		}
	}
}
