package kernel

import (
	"strings"
	"testing"

	"elsc/internal/sim"
	"elsc/internal/task"
)

func watchedMachine(t *testing.T, cpus int, f SchedulerFactory, sink *[]WatchdogViolation) *Machine {
	t.Helper()
	return NewMachine(Config{
		CPUs: cpus, SMP: cpus > 1, Seed: 42, NewScheduler: f,
		MaxCycles: 600 * DefaultHz,
		Watchdog: &WatchdogConfig{
			OnViolation: func(v WatchdogViolation) { *sink = append(*sink, v) },
		},
	})
}

// TestWatchdogCleanRunIsQuiet: a healthy oversubscribed run under the
// default thresholds produces zero violations, and the armed watchdog's
// counters render (as zeros) in the stats registry.
func TestWatchdogCleanRunIsQuiet(t *testing.T) {
	var got []WatchdogViolation
	m := watchedMachine(t, 2, elscFactory, &got)
	for i := 0; i < 6; i++ {
		m.Spawn("w", nil, computeLoop(100, 400_000))
	}
	m.Run(func() bool { return m.Alive() == 0 })
	if len(got) != 0 {
		t.Fatalf("clean run flagged %d violations, first: %s", len(got), got[0])
	}
	if m.watchdog == nil {
		t.Fatal("no watchdog on an armed machine")
	}
	out := m.Stats().Registry().Render()
	for _, line := range []string{"watchdog_starvations 0", "watchdog_invariant_faults 0"} {
		if !strings.Contains(out, line) {
			t.Fatalf("registry missing %q:\n%s", line, out)
		}
	}
}

// TestWatchdogUnarmedRendersNothing: without arming, no watchdog lines
// appear — pre-watchdog registry output is byte-compatible.
func TestWatchdogUnarmedRendersNothing(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	p := m.Spawn("w", nil, computeLoop(3, 100_000))
	m.Run(func() bool { return p.Exited() })
	if m.watchdog != nil {
		t.Fatal("watchdog armed without a config")
	}
	if strings.Contains(m.Stats().Registry().Render(), "watchdog_") {
		t.Fatal("watchdog counters rendered on an unarmed machine")
	}
}

// TestWatchdogFlagsStarvation: on one CPU a SCHED_FIFO hog at
// rt_priority 50 never yields to a SCHED_FIFO waiter at rt_priority 10.
// Real-time waits are measured against no SCHED_OTHER rotation at all, so
// the shipped bar flags the waiter at the first sweep — the violation
// carries the task and its measured wait.
func TestWatchdogFlagsStarvation(t *testing.T) {
	for _, f := range []struct {
		name    string
		factory SchedulerFactory
	}{{"reg", vanillaFactory}, {"elsc", elscFactory}, {"o1", o1Factory}} {
		t.Run(f.name, func(t *testing.T) {
			var got []WatchdogViolation
			m := watchedMachine(t, 1, f.factory, &got)
			m.SpawnRT("hog", task.FIFO, 50, computeLoop(100, DefaultTickCycles))
			waiter := m.SpawnRT("waiter", task.FIFO, 10, computeLoop(100, DefaultTickCycles))
			m.Run(func() bool { return len(got) > 0 || m.Alive() == 0 })
			if len(got) == 0 {
				t.Fatal("no starvation flagged")
			}
			v := got[0]
			if v.Kind != WatchdogStarvation || v.P != waiter || v.Now != watchdogPeriod {
				t.Fatalf("first violation: %s, want the waiter's starvation at the first sweep (t=%d)", v, watchdogPeriod)
			}
			if v.Waited == 0 {
				t.Fatalf("violation missing its wait: %s", v)
			}
			if m.Stats().WatchdogStarvations == 0 {
				t.Fatal("starvation counter not bumped")
			}
			if !strings.Contains(v.String(), "starvation") {
				t.Fatalf("violation renders as %q", v.String())
			}
		})
	}
}

// TestWatchdogFlagsLostWakeup: a runnable task that is neither queued nor
// on a CPU (simulated by dropping it from the run queue behind the
// kernel's back) is one invariant violation at the next sweep.
func TestWatchdogFlagsLostWakeup(t *testing.T) {
	var got []WatchdogViolation
	m := watchedMachine(t, 2, elscFactory, &got)
	for i := 0; i < 5; i++ {
		m.Spawn("w", nil, computeLoop(200, 400_000))
	}
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(DefaultTickCycles/2)
	m.Run(stop)

	var lost *Proc
	for _, p := range m.procs {
		if !p.exited && p.Task.Runnable() && !p.Task.HasCPU && p.Task.OnRunqueue() {
			lost = p
			break
		}
	}
	if lost == nil {
		t.Fatal("no queued task to lose")
	}
	m.sched.DelFromRunqueue(lost.Task)

	m.Run(func() bool { return len(got) > 0 })
	expectInvariant(t, m, got, lost.Task.String())

	// Repair and finish: the machine must still be able to run the task
	// to completion once it is found again.
	m.sched.AddToRunqueue(lost.Task)
	m.refile(lost)
	m.Run(func() bool { return m.Alive() == 0 })
	if !lost.Exited() {
		t.Fatal("repaired task never finished")
	}
	expectInvariant(t, m, got, lost.Task.String())
}

// TestWatchdogFlagsCPUStall: an online CPU whose timer chain died (forced
// here by resurrecting an offlined CPU behind OnlineCPU's back) is one
// invariant violation, naming the tick chain.
func TestWatchdogFlagsCPUStall(t *testing.T) {
	var got []WatchdogViolation
	m := watchedMachine(t, 2, elscFactory, &got)
	m.Spawn("hog", nil, computeLoop(400, 100_000))
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(3*DefaultTickCycles)
	m.Run(stop)
	if m.cpus[1].tickEv.Pending() {
		t.Fatal("tick chain should have parked while offline")
	}
	// The bug under test: a CPU marked online whose tick chain is dead.
	// OnlineCPU would re-arm it, so flip the bit directly.
	m.env.SetCPUOnline(1, true)
	m.cpus[1].publish()

	m.Run(func() bool { return len(got) > 0 || m.Alive() == 0 })
	expectInvariant(t, m, got, "tick chain: online cpu1")
}

// expectInvariant requires exactly one violation, an invariant whose
// error mentions want, counted once.
func expectInvariant(t *testing.T, m *Machine, got []WatchdogViolation, want string) {
	t.Helper()
	if len(got) != 1 || got[0].Kind != WatchdogInvariant || !strings.Contains(got[0].Err.Error(), want) {
		t.Fatalf("violations %v, want one invariant naming %q", got, want)
	}
	if n := m.Stats().WatchdogInvariantFaults; n != 1 {
		t.Fatalf("invariant counter = %d, want 1", n)
	}
}

// TestWatchdogSweepAllocFree: the periodic sweep over a loaded machine
// is part of the zero-allocation event path — whole sweep periods touch
// the allocator zero times.
func TestWatchdogSweepAllocFree(t *testing.T) {
	var got []WatchdogViolation
	m := watchedMachine(t, 2, elscFactory, &got)
	for i := 0; i < 8; i++ {
		m.Spawn("hog", nil, preboundHog(1_000_000, 2*DefaultTickCycles))
	}
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(20*DefaultTickCycles)
	m.Run(stop)

	runPeriod := func() {
		target = m.Now() + sim.Time(watchdogPeriod)
		m.Run(stop)
	}
	allocs := testing.AllocsPerRun(10, runPeriod)
	if allocs != 0 {
		t.Fatalf("swept watchdog period allocates %.1f objects, want 0", allocs)
	}
	if m.Alive() == 0 {
		t.Fatal("workload drained mid-measurement; sweeps ran over an empty machine")
	}
	if len(got) != 0 {
		t.Fatalf("healthy machine flagged: %s", got[0])
	}
}
