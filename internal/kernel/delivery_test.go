package kernel

import (
	"fmt"
	"strings"
	"testing"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// TestCheckDeliveryCatchesDrift corrupts, one at a time, each thing
// CheckDelivery audits — a state mask, a cached contribution, the rule
// itself — on an otherwise healthy machine, and requires the audit to
// name it.
func TestCheckDeliveryCatchesDrift(t *testing.T) {
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
		if err := m.CheckDelivery(); err != nil {
			t.Fatalf("healthy machine: %v", err)
		}
		return m, sleeper
	}
	expect := func(m *Machine, want string) {
		t.Helper()
		if err := m.CheckDelivery(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("CheckDelivery = %v, want an error naming %q", err, want)
		}
	}

	m, _ := boot()
	m.kicked |= cpuBit(1) // no IPI armed
	expect(m, "state masks")

	// A wake-up that files the task but forgets everything after it.
	m, sleeper := boot()
	sleeper.Task.State = task.Running
	m.sched.AddToRunqueue(sleeper.Task)
	expect(m, "cached as deliverable")

	// The counts are right, but nobody was kicked: both CPUs idle, ticks
	// parked, nothing in flight. This is the lost kick itself.
	m.refile(sleeper)
	expect(m, "no CPU there will schedule unaided")

	m.rescheduleIdle(sleeper)
	if err := m.CheckDelivery(); err != nil {
		t.Fatalf("after the kick: %v", err)
	}
}

// BenchmarkMicro_KickBacklog times one dispatching schedule() — a task
// yielding to itself — on 32P-NUMA with one CPU idle, thirty busy, and
// a varying number of blocked procs. The kick-delivery step after the
// dispatch reads per-CPU counts, so the cost must not grow with the
// blocked population (it was a CPUs x procs sweep).
func BenchmarkMicro_KickBacklog(b *testing.B) {
	for _, blocked := range []int{8, 800} {
		b.Run(fmt.Sprintf("blocked%d", blocked), func(b *testing.B) {
			m := NewMachine(Config{CPUs: 32, SMP: true, Topology: sched.UniformTopology(32, 4),
				Seed: 42, NewScheduler: o1Factory})
			forever := ProgramFunc(func(*Proc) Action { return Compute{Cycles: 1 << 40} })
			for cpu := 1; cpu <= 30; cpu++ {
				m.SetAffinity(m.Spawn("hog", nil, forever), 1<<uint(cpu))
			}
			for i := 0; i < blocked; i++ {
				m.Spawn("blocked", nil, ProgramFunc(func(*Proc) Action { return Sleep{Cycles: 1 << 50} }))
			}
			m.Run(func() bool { return m.sched.Runnable() == 0 && m.idle == 1|1<<31 })
			yield := Action(Yield{})
			m.SetAffinity(m.Spawn("yielder", nil, ProgramFunc(func(*Proc) Action { return yield })), 1)
			m.Run(func() bool { return m.idle == 1<<31 })
			b.ResetTimer()
			target := m.stats.YieldCalls + uint64(b.N)
			m.Run(func() bool { return m.stats.YieldCalls >= target })
			b.StopTimer()
			if m.idle != 1<<31 || m.wide+m.cpus[31].narrow != 0 {
				b.Fatalf("setup drifted: idle=%#x, cpu31 owed %d", m.idle, m.wide+m.cpus[31].narrow)
			}
		})
	}
}
