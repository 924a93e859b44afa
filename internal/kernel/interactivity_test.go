package kernel

import (
	"testing"

	"elsc/internal/sched"
	"elsc/internal/sched/o1"
)

func o1Factory(env *sched.Env) sched.Scheduler { return o1.New(env) }

// TestSleepAvgCreditAndDrain: the kernel's accounting hooks drive the
// estimator — blocked time credits sleep_avg (clamped at the cost
// model's ceiling), executed cycles drain it.
func TestSleepAvgCreditAndDrain(t *testing.T) {
	m := NewMachine(Config{CPUs: 1, Seed: 1, NewScheduler: o1Factory,
		MaxCycles: 400_000_000})
	max := m.env.Cost.MaxSleepAvg
	seed := max / 2 // fork-time inheritance: the neutral midpoint
	sleeperDone := false
	sleeper := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
		if sleeperDone {
			return Exit{}
		}
		sleeperDone = true
		return Sleep{Cycles: 2 * max} // sleeps far past the ceiling
	}))
	m.Run(func() bool { return m.Alive() == 0 })
	if got := sleeper.Task.SleepAvg(); got > max {
		t.Fatalf("sleep_avg %d exceeds the ceiling %d", got, max)
	} else if got < max*9/10 {
		t.Fatalf("sleep_avg %d after a long sleep, want near the ceiling %d", got, max)
	}

	m2 := NewMachine(Config{CPUs: 1, Seed: 1, NewScheduler: o1Factory,
		MaxCycles: 400_000_000})
	steps := 0
	hog := m2.Spawn("hog", nil, ProgramFunc(func(p *Proc) Action {
		steps++
		if steps > 3 {
			return Exit{}
		}
		return Compute{Cycles: seed} // each burst drains a whole seed's worth
	}))
	m2.Run(func() bool { return m2.Alive() == 0 })
	if got := hog.Task.SleepAvg(); got != 0 {
		t.Fatalf("hog sleep_avg = %d after draining runs, want 0", got)
	}
}

// TestWakeIdleTarget pins the SD_WAKE_IDLE placement preference order:
// no placement outside a syscall context, none when the task's own last
// CPU is idle, the task's home domain before the waker's, and -1 when
// every candidate is busy.
func TestWakeIdleTarget(t *testing.T) {
	m := NewMachine(Config{CPUs: 4, SMP: true, Topology: sched.UniformTopology(4, 2),
		Seed: 1, NewScheduler: o1Factory})
	p := m.Spawn("t", nil, ProgramFunc(func(*Proc) Action { return Exit{} }))
	tk := p.Task
	tk.EverRan = true
	tk.Processor = 1
	busy := &Proc{}
	occupy := func(cpu int, p *Proc) {
		m.cpus[cpu].current = p
		m.cpus[cpu].publish()
	}

	m.wakerCPU = -1 // interrupt context: no waker, no placement
	if got := m.wakeIdleTarget(tk); got != -1 {
		t.Fatalf("no-waker target = %d, want -1", got)
	}
	m.wakerCPU = 2
	if got := m.wakeIdleTarget(tk); got != -1 {
		t.Fatalf("idle home CPU: target = %d, want -1 (the affinity fast path lands it)", got)
	}
	occupy(1, busy) // home CPU busy: prefer an idle home-domain CPU
	if got := m.wakeIdleTarget(tk); got != 0 {
		t.Fatalf("home-domain target = %d, want 0", got)
	}
	occupy(0, busy)
	occupy(2, busy) // home domain full, waker executing: its idle neighbor
	if got := m.wakeIdleTarget(tk); got != 3 {
		t.Fatalf("waker-domain target = %d, want 3", got)
	}
	occupy(3, busy) // machine full: no placement
	if got := m.wakeIdleTarget(tk); got != -1 {
		t.Fatalf("saturated target = %d, want -1", got)
	}
	tk.CPUsAllowed = 1 << 1 // pinned to its busy home: nothing to place
	occupy(0, nil)
	if got := m.wakeIdleTarget(tk); got != -1 {
		t.Fatalf("affinity-pinned target = %d, want -1", got)
	}
}
