package kernel

import "testing"

// TestMachineTimeGolden pins the machine-wide time and switch accounting
// in all four shapes: with and without a CPU unplugged before the run and
// plugged back after it, with and without tick chains parking. One task
// saturates one of three CPUs, so task time is one CPU's worth of the run
// and can never pass CPUs × Now.
func TestMachineTimeGolden(t *testing.T) {
	type times struct {
		IdleCycles, TaskCycles, OfflineCycles uint64
		CPUOfflines, CPUOnlines, TicksSkipped uint64
		CtxSwitches, IdleSwitches             uint64
	}
	for _, tc := range []struct {
		name                string
		ticklessOff, unplug bool
		want                times
	}{
		{"plain", true, false, times{24008530, 12000000, 0, 0, 0, 0, 1, 3}},
		{"hotplug", true, true, times{12003935, 12000000, 12006400, 1, 1, 0, 1, 3}},
		{"tickless", false, false, times{24008530, 12000000, 0, 0, 0, 4, 1, 3}},
		{"hotplug+tickless", false, true, times{12003935, 12000000, 12006400, 1, 1, 2, 1, 3}},
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
		if tc.unplug {
			if err := m.OnlineCPU(2); err != nil {
				t.Fatal(err)
			}
		}
		s := m.Stats()
		got := times{s.IdleCycles, s.TaskCycles, s.OfflineCycles,
			s.CPUOfflines, s.CPUOnlines, s.TicksSkipped, s.CtxSwitches, s.IdleSwitches}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if s.TaskCycles > uint64(m.NumCPU())*uint64(m.Now()) {
			t.Errorf("%s: task cycles %d past %d CPUs × now %d", tc.name, s.TaskCycles, m.NumCPU(), m.Now())
		}
	}
}
