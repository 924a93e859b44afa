package kernel

import (
	"strings"
	"testing"

	"elsc/internal/sim"
	"elsc/internal/task"
)

// TestCheckAllCatchesDrift corrupts, one row per predicate, the state
// behind it on an otherwise healthy machine, and requires CheckAll to
// name that predicate.
func TestCheckAllCatchesDrift(t *testing.T) {
	wq := new(WaitQueue)
	boot := func() (*Machine, *Proc) {
		m := newMachine(t, 2, elscFactory)
		blocked := false
		sleeper := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
			if blocked {
				return Exit{}
			}
			blocked = true
			return p.Call(Syscall{Exec: func(*Syscall, *Proc, sim.Time) Outcome { return BlockOn(wq) }})
		}))
		// Run until the sleeper blocks and both CPUs' idle ticks parked.
		m.Run(func() bool { return m.Now() > sim.Time(3*DefaultTickCycles) })
		if sleeper.waitingOn == nil || m.idle != m.allCPUs {
			t.Fatalf("setup: sleeper blocked=%v idle=%#x", sleeper.waitingOn != nil, m.idle)
		}
		if err := m.CheckAll(); err != nil {
			t.Fatalf("healthy machine: %v", err)
		}
		return m, sleeper
	}
	// wake files the sleeper the way a wake-up that forgets everything
	// after the enqueue would.
	wake := func(m *Machine, p *Proc) {
		p.Task.State = task.Running
		m.sched.AddToRunqueue(p.Task)
	}
	for _, row := range []struct {
		want    string
		corrupt func(m *Machine, sleeper *Proc)
	}{
		{"state masks", func(m *Machine, _ *Proc) { m.kicked |= cpuBit(1) }}, // no IPI armed
		{"deliverable counts", wake},
		// The counts are right, but nobody was kicked: both CPUs idle,
		// ticks parked, nothing in flight. This is the lost kick itself.
		{"delivery rule", func(m *Machine, p *Proc) { wake(m, p); m.refile(p) }},
		// Runnable but never filed: the lost wake-up.
		{"census", func(_ *Machine, p *Proc) { p.Task.State = task.Running }},
		{"segment event", func(m *Machine, _ *Proc) { m.eng.ScheduleAfter(&m.cpus[0].runEv, 1) }},
		{"dispatch event", func(m *Machine, _ *Proc) { m.eng.ScheduleAfter(&m.cpus[0].dispatchEv, 1) }},
		// A parked chain with no grid anchor: ensureTick never revives it.
		{"tick chain", func(m *Machine, _ *Proc) { m.cpus[1].tickNext = 0 }},
	} {
		m, sleeper := boot()
		row.corrupt(m, sleeper)
		if err := m.CheckAll(); err == nil || !strings.HasPrefix(err.Error(), row.want+":") {
			t.Errorf("CheckAll = %v, want an error naming %q", err, row.want)
		}
	}

	m, sleeper := boot()
	wake(m, sleeper)
	m.refile(sleeper)
	m.rescheduleIdle(sleeper)
	if err := m.CheckAll(); err != nil {
		t.Fatalf("after the kick: %v", err)
	}
}
