package kernel

import "testing"

// TestMPStatGolden pins the rendered table in all four shapes: the
// STATE/OFFLINE and TICKLESS columns appear only on runs that unplugged a
// CPU or parked a tick chain.
func TestMPStatGolden(t *testing.T) {
	const (
		head = " CPU           WORK           IDLE   DISPATCH    UTIL"
		cpu0 = "   0       12000700              0          2  100.0%"
	)
	for _, tc := range []struct {
		name                string
		ticklessOff, unplug bool
		want                string
	}{
		{"plain", true, false, head + "\n" +
			cpu0 + "\n" +
			"   1              0       12004595          1    0.0%\n" +
			"   2              0       12003935          1    0.0%\n"},
		{"hotplug", true, true, head + "  STATE        OFFLINE\n" +
			cpu0 + "     on              0\n" +
			"   1              0       12003935          2    0.0%     on              0\n" +
			"   2              0              0          0    0.0%    off       12006400\n"},
		{"tickless", false, false, head + "       TICKLESS\n" +
			cpu0 + "              0\n" +
			"   1              0       12004595          1    0.0%        8005403\n" +
			"   2              0       12003935          1    0.0%        8004406\n"},
		{"hotplug+tickless", false, true, head + "  STATE        OFFLINE       TICKLESS\n" +
			cpu0 + "     on              0              0\n" +
			"   1              0       12003935          2    0.0%     on              0        8005403\n" +
			"   2              0              0          0    0.0%    off       12006400              0\n"},
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
		if got := m.MPStat(); got != tc.want {
			t.Errorf("%s:\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
