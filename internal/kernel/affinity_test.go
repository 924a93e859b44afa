package kernel

import (
	"testing"

	"elsc/internal/task"
)

func TestAffinityPinsTaskToCPU(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 4, f)
		pinned := m.Spawn("pinned", nil, computeLoop(50, 200_000))
		m.SetAffinity(pinned, 1<<2) // CPU 2 only
		// Background load everywhere else.
		for i := 0; i < 6; i++ {
			m.Spawn("bg", nil, computeLoop(20, 150_000))
		}
		m.Run(func() bool { return pinned.Exited() })
		if !pinned.Exited() {
			t.Fatal("pinned task never finished")
		}
		if pinned.Task.Processor != 2 {
			t.Fatalf("pinned task last ran on CPU %d, want 2", pinned.Task.Processor)
		}
		if pinned.Task.Migrations != 0 {
			t.Fatalf("pinned task migrated %d times", pinned.Task.Migrations)
		}
	})
}

func TestAffinityMaskAllowsSubset(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 4, f)
		p := m.Spawn("duo", nil, ProgramFunc(func(p *Proc) Action {
			if p.Steps >= 40 {
				return Exit{}
			}
			if p.Steps%2 == 0 {
				return Sleep{Cycles: 30_000}
			}
			return Compute{Cycles: 50_000}
		}))
		m.SetAffinity(p, 1<<1|1<<3) // CPUs 1 and 3
		for i := 0; i < 4; i++ {
			m.Spawn("bg", nil, computeLoop(10, 100_000))
		}
		m.Run(func() bool { return p.Exited() })
		if p.Task.Processor != 1 && p.Task.Processor != 3 {
			t.Fatalf("task ran on disallowed CPU %d", p.Task.Processor)
		}
	})
}

func TestZeroMaskAllowsAll(t *testing.T) {
	tk := task.New(1, "t", nil, nil)
	for cpu := 0; cpu < 8; cpu++ {
		if !tk.AllowedOn(cpu) {
			t.Fatalf("zero mask should allow CPU %d", cpu)
		}
	}
	tk.CPUsAllowed = 1 << 5
	if tk.AllowedOn(4) || !tk.AllowedOn(5) {
		t.Fatal("mask semantics wrong")
	}
}

func TestSetPolicyDemotesToOther(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	p := m.SpawnRT("rt", task.RR, 40, computeLoop(3, 50_000))
	m.SetPolicy(p, task.Other, 0)
	if p.Task.RealTime() || p.Task.RTPriority != 0 {
		t.Fatal("demotion did not clear the RT class")
	}
	m.Run(func() bool { return p.Exited() })
	if !p.Exited() {
		t.Fatal("demoted task never ran")
	}
}

func TestSetPolicyRejectsBadPriority(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	p := m.Spawn("w", nil, computeLoop(1, 1000))
	defer func() {
		if recover() == nil {
			t.Fatal("SetPolicy with rt_priority 500 should panic")
		}
	}()
	m.SetPolicy(p, task.FIFO, 500)
}
