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

func TestPSRendersTaskTable(t *testing.T) {
	m := newMachine(t, 2, vanillaFactory)
	a := m.Spawn("alpha", m.NewMM("app"), computeLoop(3, 50_000))
	m.SpawnRT("beta-rt", task.FIFO, 7, computeLoop(2, 20_000))
	m.Run(func() bool { return m.Alive() == 0 })
	out := m.PS()
	for _, want := range []string{"PID", "alpha", "beta-rt", "exited", "rt7", "app"} {
		if !contains(out, want) {
			t.Fatalf("ps output missing %q:\n%s", want, out)
		}
	}
	if a.Task.UserCycles == 0 {
		t.Fatal("alpha finished without any CPU time on record")
	}
}

func TestPSClipsLongNames(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	p := m.Spawn("a-very-long-task-name-that-exceeds-the-column", nil, computeLoop(1, 100))
	m.Run(func() bool { return p.Exited() })
	if !contains(m.PS(), "~") {
		t.Fatal("long name not clipped")
	}
}

func TestMPStatPerCPUBreakdown(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	p := m.Spawn("solo", nil, computeLoop(1, 3*DefaultTickCycles))
	m.Run(func() bool { return p.Exited() })
	stats := m.CPUStats()
	if len(stats) != 2 {
		t.Fatalf("CPUStats len = %d", len(stats))
	}
	var work, idle uint64
	for _, s := range stats {
		work += s.WorkCycles
		idle += s.IdleCycles
	}
	if work == 0 {
		t.Fatal("no work recorded")
	}
	if idle == 0 {
		t.Fatal("a 2-CPU machine with one task must accumulate idle time")
	}
	for i, s := range stats {
		if s.CPU != i || !s.Online || s.WorkCycles+s.IdleCycles == 0 {
			t.Fatalf("cpu%d row: %+v", i, s)
		}
	}
	if u := float64(stats[0].WorkCycles+stats[1].WorkCycles) / float64(m.Now()); u <= 0 || u > 1.01 {
		t.Fatalf("one task on two CPUs: utilizations sum to %f, want (0, 1]", u)
	}
}

func TestCPUStatUtilizationBounds(t *testing.T) {
	m := newMachine(t, 1, vanillaFactory)
	p := m.Spawn("w", nil, computeLoop(5, DefaultTickCycles))
	m.Run(func() bool { return p.Exited() })
	elapsed := uint64(m.Now())
	for _, s := range m.CPUStats() {
		u := float64(s.WorkCycles) / float64(elapsed)
		if u < 0 || u > 1.01 {
			t.Fatalf("utilization %f out of bounds", u)
		}
	}
}
