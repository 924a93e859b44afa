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
// on a fresh policy's untouched queues). CheckAll runs after every event.
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
				if err := m.CheckAll(); err != nil {
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

// everyPolicy runs fn on a fresh one-CPU machine under each registered
// policy. What the real-time classes promise is promised by all six, and
// what delivers it — where AddToRunqueue files a task among its equals,
// what Schedule does with an expired round-robin prev — is each policy's
// own, so every test below holds each of them to it through the kernel.
func everyPolicy(t *testing.T, fn func(t *testing.T, policy string, m *kernel.Machine)) {
	for _, policy := range experiments.Policies {
		t.Run(policy, func(t *testing.T) {
			fn(t, policy, kernel.NewMachine(kernel.Config{
				CPUs: 1, Seed: 42,
				NewScheduler: experiments.Factory(policy),
				MaxCycles:    50 * kernel.DefaultHz,
			}))
		})
	}
}

// compute returns a program of one compute burst of the given ticks.
func compute(ticks uint64) kernel.Program { return burst(1, ticks*kernel.DefaultTickCycles) }

func TestRealTimeFIFORunsUntilBlock(t *testing.T) {
	everyPolicy(t, func(t *testing.T, _ string, m *kernel.Machine) {
		reg := m.Spawn("reg", nil, compute(30))
		rt := m.SpawnRT("rt", task.FIFO, 50, compute(30))
		m.Run(func() bool { return rt.Exited() })
		// The FIFO task must finish its entire burst before the regular
		// task gets any significant CPU.
		if reg.Task.UserCycles > 2*kernel.DefaultTickCycles {
			t.Fatalf("regular task got %d cycles while RT was runnable", reg.Task.UserCycles)
		}
	})
}

// TestRealTimeRRRoundRobin: equal-priority SCHED_RR tasks interleave — when
// one finishes, the other has had comparable CPU time. No kernel code
// rotates them: each policy's Schedule sends the prev whose quantum
// expired behind its equals (heap and mq once re-filed it where it won the
// tie again, and one task ran to completion while the other starved).
func TestRealTimeRRRoundRobin(t *testing.T) {
	everyPolicy(t, func(t *testing.T, _ string, m *kernel.Machine) {
		a := m.SpawnRT("rr-a", task.RR, 50, compute(60))
		b := m.SpawnRT("rr-b", task.RR, 50, compute(60))
		m.Run(func() bool { return a.Exited() || b.Exited() })
		lo, hi := a.Task.UserCycles, b.Task.UserCycles
		if lo > hi {
			lo, hi = hi, lo
		}
		if float64(lo) < 0.6*float64(hi) {
			t.Fatalf("RR tasks did not round-robin: %d vs %d cycles in %d context switches",
				a.Task.UserCycles, b.Task.UserCycles, m.Stats().CtxSwitches)
		}
	})
}

func TestSetPolicyPromotesToRealTime(t *testing.T) {
	everyPolicy(t, func(t *testing.T, _ string, m *kernel.Machine) {
		hog := m.Spawn("hog", nil, compute(80))
		victim := m.Spawn("victim", nil, compute(10))
		// Promote the victim to SCHED_FIFO: it must finish while the hog
		// still has most of its work left.
		m.SetPolicy(victim, task.FIFO, 60)
		m.Run(func() bool { return victim.Exited() })
		if hog.Task.UserCycles > 30*kernel.DefaultTickCycles {
			t.Fatalf("hog got %d cycles while an RT task was runnable", hog.Task.UserCycles)
		}
		if !victim.Task.RealTime() {
			t.Fatal("victim not real-time after SetPolicy")
		}
	})
}

// TestSetPolicyRefilesAheadOfQueuedPeer: sched_setscheduler on a queued
// task moves it to the front of its queue, and the move is nothing but the
// re-file — the task joins an equal-rt_priority FIFO peer that was queued
// before it and runs first, to completion. heap keeps equal keys in
// arrival order, its own tie rule, so there the waiting peer runs first.
func TestSetPolicyRefilesAheadOfQueuedPeer(t *testing.T) {
	everyPolicy(t, func(t *testing.T, policy string, m *kernel.Machine) {
		late := m.Spawn("late", nil, compute(20))
		peer := m.SpawnRT("peer", task.FIFO, 50, compute(20))
		m.SetPolicy(late, task.FIFO, 50)
		m.Run(func() bool { return late.Exited() || peer.Exited() })
		first, second := late, peer
		if policy == experiments.Heap {
			first, second = peer, late
		}
		if !first.Exited() || second.Task.UserCycles != 0 {
			t.Fatalf("%s exited=%v; %s ran %d cycles: want %s to run first and, being FIFO, to the end",
				first.Task.Name, first.Exited(), second.Task.Name, second.Task.UserCycles, first.Task.Name)
		}
	})
}
