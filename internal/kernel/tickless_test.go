package kernel

import (
	"testing"

	"elsc/internal/sim"
)

// ticklessMachine builds a 2P machine with an explicit tickless mode.
func ticklessMachine(t *testing.T, cpus int, off bool) *Machine {
	t.Helper()
	return NewMachine(Config{
		CPUs:         cpus,
		SMP:          cpus > 1,
		Seed:         42,
		NewScheduler: elscFactory,
		TicklessOff:  off,
		MaxCycles:    50 * DefaultHz,
	})
}

// TestIdleTickParksChain: a tick that finds its CPU fully idle parks the
// chain instead of re-arming and records the grid anchor one period out;
// a Run that stops with the chain still parked counts every grid instant
// it idled through as skipped and moves the anchor past them, on the
// same grid.
func TestIdleTickParksChain(t *testing.T) {
	m := ticklessMachine(t, 2, false)
	m.Spawn("hog", nil, computeLoop(2000, 100_000))
	c := m.cpus[1]
	m.Run(func() bool { return !c.tickEv.Pending() })
	parkAt := m.Now()
	if c.tickNext != parkAt+sim.Time(DefaultTickCycles) {
		t.Fatalf("grid anchor = %d, want park+period = %d",
			c.tickNext, parkAt+sim.Time(DefaultTickCycles))
	}
	if got := m.Stats().TicksSkipped; got != 0 {
		t.Fatalf("the park itself counted %d skipped ticks, want 0", got)
	}
	target := m.Now() + sim.Time(5*DefaultTickCycles)
	m.Run(func() bool { return m.Now() >= target })
	if c.tickEv.Pending() {
		t.Fatal("idle CPU un-parked with no work arriving")
	}
	if c.tickNext <= m.Now() || (c.tickNext-parkAt)%sim.Time(DefaultTickCycles) != 0 {
		t.Fatalf("grid anchor = %d at now %d, want the first instant of the park's grid after now",
			c.tickNext, m.Now())
	}
	skipped := m.Stats().TicksSkipped
	if want := uint64(c.tickNext-parkAt)/DefaultTickCycles - 1; skipped != want || skipped < 5 {
		t.Fatalf("ticks skipped = %d, want %d (every grid instant parked through, at least 5)",
			skipped, want)
	}
}

// TestEnsureTickResumesGridAndCountsSkips: waking a long-parked CPU
// re-arms the chain at the first grid instant strictly after the wake
// and books every elided instant as skipped — quantum accounting resumes
// on the boot-stagger grid, not on a fresh one.
func TestEnsureTickResumesGridAndCountsSkips(t *testing.T) {
	m := ticklessMachine(t, 2, false)
	hog := m.Spawn("hog", nil, computeLoop(2000, 100_000))
	c := m.cpus[1]
	m.Run(func() bool { return !c.tickEv.Pending() })
	anchor := c.tickNext
	skipsBefore := m.Stats().TicksSkipped

	// Sleep far past several grid instants, then wake work onto cpu1.
	target := m.Now() + sim.Time(7*DefaultTickCycles) + 12_345
	m.Run(func() bool { return m.Now() >= target })
	side := m.Spawn("side", nil, computeLoop(50, 100_000))
	m.Run(func() bool { return c.current != nil })
	if !c.tickEv.Pending() {
		t.Fatal("dispatch did not re-arm the parked chain")
	}
	// The resumed tickNext must sit on the original anchor's grid,
	// strictly in the future at re-arm time.
	if (c.tickNext-anchor)%sim.Time(DefaultTickCycles) != 0 {
		t.Fatalf("re-armed tick %d is off the original grid (anchor %d, period %d)",
			c.tickNext, anchor, DefaultTickCycles)
	}
	skipped := m.Stats().TicksSkipped - skipsBefore
	if skipped < 7 {
		t.Fatalf("skipped = %d ticks across a 7+ period park, want >= 7", skipped)
	}
	m.Run(func() bool { return side.Exited() && hog.Exited() })
}

// TestTicklessOffKeepsAlwaysOnChain: the ablation mode never parks — the
// idle CPU's chain stays armed and no skips are ever counted.
func TestTicklessOffKeepsAlwaysOnChain(t *testing.T) {
	m := ticklessMachine(t, 2, true)
	hog := m.Spawn("hog", nil, computeLoop(400, 100_000))
	target := sim.Time(10 * DefaultTickCycles)
	m.Run(func() bool { return m.Now() >= target })
	c := m.cpus[1]
	if !c.tickEv.Pending() {
		t.Fatal("tickless-off chain parked, want always-on")
	}
	if s := m.Stats(); s.TicksSkipped != 0 {
		t.Fatalf("ticks_skipped = %d with tickless off, want 0", s.TicksSkipped)
	}
	m.Run(func() bool { return hog.Exited() })
}

// TestTicklessQuantumExact: a hog sharing its CPU with another hog sees
// identical preemption instants whether or not the *other* CPU's idle
// chain parks — tickless idle must not perturb quantum expiry anywhere.
// Both modes run the same seed; the observable task-side numbers and the
// virtual finish time must match exactly.
func TestTicklessQuantumExact(t *testing.T) {
	run := func(off bool) (fin sim.Time, user, inv, vol uint64) {
		m := ticklessMachine(t, 4, off)
		a := m.Spawn("a", nil, computeLoop(300, 100_000))
		b := m.Spawn("b", nil, computeLoop(300, 100_000))
		m.Run(func() bool { return a.Exited() && b.Exited() })
		return m.Now(), a.Task.UserCycles, uint64(a.Task.InvSwitches), uint64(a.Task.VolSwitches)
	}
	onFin, onUser, onInv, onVol := run(false)
	offFin, offUser, offInv, offVol := run(true)
	if onFin != offFin || onUser != offUser || onInv != offInv || onVol != offVol {
		t.Fatalf("tickless on/off diverged: finish %d/%d user %d/%d inv %d/%d vol %d/%d",
			onFin, offFin, onUser, offUser, onInv, offInv, onVol, offVol)
	}
	// And the on-mode run must actually have parked something: a 4P
	// machine with 2 hogs has idle CPUs for the whole run.
	m := ticklessMachine(t, 4, false)
	a := m.Spawn("a", nil, computeLoop(300, 100_000))
	b := m.Spawn("b", nil, computeLoop(300, 100_000))
	m.Run(func() bool { return a.Exited() && b.Exited() })
	if m.Stats().TicksSkipped == 0 {
		t.Fatal("4P machine with 2 hogs skipped no idle ticks")
	}
	if m.Stats().IdleTickRescues != 0 {
		t.Fatalf("idle_tick_rescues = %d, want 0", m.Stats().IdleTickRescues)
	}
}

// TestAffinityMoveOffRunningCPUGetsKick is the regression test for the
// bug the rescue audit flushed out: restricting a running task's
// affinity to a different, idle CPU must kick that CPU when the task is
// descheduled — formerly the victim CPU's idle tick polled the queue and
// papered over the missing kick, and a parked chain polls nothing.
func TestAffinityMoveOffRunningCPUGetsKick(t *testing.T) {
	m := ticklessMachine(t, 2, false)
	// Long enough that the quantum expires at least once after the
	// affinity change — the deschedule is where the kick must happen.
	mover := m.Spawn("mover", nil, computeLoop(2000, 100_000))
	m.Run(func() bool { return mover.Task.HasCPU })
	from := mover.Task.Processor
	to := 1 - from
	// Park the destination CPU's chain first.
	m.Run(func() bool { return !m.cpus[to].tickEv.Pending() })
	m.SetAffinity(mover, 1<<uint(to))
	m.Run(func() bool { return mover.Exited() })
	if !mover.Exited() {
		t.Fatal("re-pinned task never finished: no kick reached the parked CPU")
	}
	if mover.Task.Processor != to {
		t.Fatalf("task finished on cpu%d, want %d", mover.Task.Processor, to)
	}
	if n := m.Stats().IdleTickRescues; n != 0 {
		t.Fatalf("idle_tick_rescues = %d, want 0 — the kick must be real, not a rescue", n)
	}
}
