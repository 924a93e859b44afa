package kernel_test

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// burst returns a program of n compute chunks of c cycles with a short
// sleep after each, so the task blocks and is enqueued again every round.
func burst(n int, c uint64) kernel.Program {
	i, slept := 0, true
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		switch {
		case i >= n:
			return kernel.Exit{}
		case !slept:
			slept = true
			return kernel.Sleep{Cycles: c / 4}
		}
		i++
		slept = false
		return kernel.Compute{Cycles: c}
	})
}

// TestRealTimeThroughHotplugAndPolicySwitch drives real-time tasks — which
// no registry workload spawns — through the kernel paths that empty and
// refill the level-array policies' queues: six SpawnRT tasks arrive on a
// 4-CPU o1 (and cfs) machine that has so far run SCHED_OTHER hogs only, at
// rt_priority 0, 50 and 99, more of them than CPUs so some wait queued; a
// CPU goes offline under them and comes back (its queue drained with
// real-time tasks on it), the policy is switched to the other one and back
// with a second CPU offline (every queue drained, then real-time enqueues
// on a fresh policy's untouched queues). The delivery audit runs after every event.
// The hogs hold several times the CPU time the sleeping real-time tasks
// leave free, so a hog finishing before the last real-time task means
// real-time tasks sat behind SCHED_OTHER ones; and everything must finish.
func TestRealTimeThroughHotplugAndPolicySwitch(t *testing.T) {
	for _, pair := range [][2]string{{experiments.O1, experiments.CFS}, {experiments.CFS, experiments.O1}} {
		t.Run(pair[0], func(t *testing.T) {
			m := kernel.NewMachine(kernel.Config{
				CPUs: 4, SMP: true, Seed: 42,
				NewScheduler: experiments.Factory(pair[0]),
				MaxCycles:    50 * kernel.DefaultHz,
			})
			var hogs, rts []*kernel.Proc
			hogsDoneAtRTExit := 0
			events := 0
			audit := func() {
				t.Helper()
				if err := m.CheckDelivery(); err != nil {
					t.Fatalf("after event %d (t=%d): %v", events, m.Now(), err)
				}
			}
			runFor := func(cycles uint64) {
				target := m.Now() + sim.Time(cycles)
				m.Run(func() bool {
					audit()
					events++
					return m.Now() >= target || m.Alive() == 0
				})
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				audit()
			}

			for i := 0; i < 6; i++ {
				hogs = append(hogs, m.Spawn(fmt.Sprintf("hog%d", i), nil, burst(200, 400_000)))
			}
			runFor(2 * kernel.DefaultTickCycles)
			for i, prio := range []int{0, 99, 50, 50, 99, 0} {
				class := []task.Policy{task.FIFO, task.RR}[i%2]
				rts = append(rts, m.SpawnRT(fmt.Sprintf("rt%d", i), class, prio, burst(40, 300_000)))
			}
			runFor(kernel.DefaultTickCycles / 2)
			must(m.OfflineCPU(1))
			runFor(kernel.DefaultTickCycles / 2)
			must(m.OnlineCPU(1))
			runFor(kernel.DefaultTickCycles / 2)
			must(m.OfflineCPU(2))
			m.SwitchPolicy(experiments.Factory(pair[1]))
			audit()
			runFor(kernel.DefaultTickCycles / 2)
			must(m.OnlineCPU(2))
			m.SwitchPolicy(experiments.Factory(pair[0]))
			audit()
			for _, p := range rts {
				if p.Exited() {
					t.Fatalf("%s finished before the last transition: the script no longer moves live real-time tasks", p.Task.Name)
				}
			}
			m.Run(func() bool {
				audit()
				events++
				for _, p := range rts {
					if !p.Exited() {
						return false
					}
				}
				return true
			})
			for _, p := range hogs {
				if p.Exited() {
					hogsDoneAtRTExit++
				}
			}
			runFor(40 * kernel.DefaultHz)

			if m.Alive() != 0 {
				t.Fatalf("%d tasks never finished", m.Alive())
			}
			if hogsDoneAtRTExit != 0 {
				t.Errorf("%d SCHED_OTHER hogs finished before the last real-time task", hogsDoneAtRTExit)
			}
			if n := m.Stats().IdleTickRescues; n != 0 {
				t.Errorf("%d idle-tick rescues", n)
			}
		})
	}
}
