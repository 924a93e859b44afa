package kernel_test

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/workload/volano"
)

// TestWakeIdlePlacementsCounted: a syscall-heavy workload on a machine
// with idle capacity produces SD_WAKE_IDLE placements under o1, none
// under the InteractivityOff ablation, and the counter reaches the stats
// registry either way.
func TestWakeIdlePlacementsCounted(t *testing.T) {
	run := func(off bool) *kernel.Stats {
		m := kernel.NewMachine(kernel.Config{CPUs: 4, SMP: true, Topology: sched.UniformTopology(4, 2),
			Seed: 42, MaxCycles: 3000 * kernel.DefaultHz,
			NewScheduler: func(env *sched.Env) sched.Scheduler {
				return o1.NewWithConfig(env, o1.Config{InteractivityOff: off})
			}})
		m.Run(volano.Build(m, volano.Config{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 4}).Done)
		return m.Stats()
	}
	on := run(false)
	if on.WakeIdlePlacements == 0 {
		t.Fatal("no SD_WAKE_IDLE placements on an underloaded machine")
	}
	if off := run(true); off.WakeIdlePlacements != 0 {
		t.Fatalf("InteractivityOff ablation still placed %d wakes", off.WakeIdlePlacements)
	}
	if l, ok := on.Registry().Lookup("wake_idle_placements"); !ok || l.Value != on.WakeIdlePlacements {
		t.Fatal("wake_idle_placements missing from the stats registry")
	}
}
