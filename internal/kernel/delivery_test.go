package kernel

import (
	"fmt"
	"testing"

	"elsc/internal/sched"
)

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
