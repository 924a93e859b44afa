package conformance

// CPU hotplug conformance: every registered policy, on both the flat 8P
// and the 32P-NUMA machine, survives a staggered offline→online cycle of
// three CPUs while an oversubscribed mixed workload runs. This is the
// machine-level counterpart of the policy-layer swap matrix: the machine
// (not a harness emulation) performs the preempt/drain/re-route
// sequence, and the invariants are observable end to end:
//
//   - the machine's invariants, the census among them, hold at every
//     transition (kernel.Machine.CheckAll at the injection points);
//   - no task is ever dispatched onto an offline CPU (a Trace hook sees
//     every schedule() decision);
//   - each cycled CPU dispatches work again after it returns;
//   - the workload completes, and the armed watchdog stays silent;
//   - a task pinned solely to a dying CPU widens per cpuset-fallback
//     semantics, makes progress while its CPU is down, and finishes on
//     its own CPU after the re-pin;
//   - no policy reads a scheduler-private tag it did not write: every
//     transition finds QIndex/QZero/QStamp poisoned (scribble) on every
//     task no policy holds, and TestOfflineDrainRefilesPoisonedTasks does
//     the drain-and-re-file by hand to poison the drained tasks too.

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// hotplugSpecs mirrors swapSpecs: the flat 8P machine and the 32P
// four-domain NUMA machine, resolved through the experiments registry so
// the shapes stay in sync with the sweep.
var hotplugSpecs = []string{"8P", "32P-NUMA"}

// mixedProg is ~60 steps of 200k-cycle compute, with every third task
// interleaving short sleeps so wakeups race the hotplug transitions.
func mixedProg(i int) kernel.Program {
	n := 0
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		n++
		if n > 60 {
			return kernel.Exit{}
		}
		if i%3 == 0 && n%7 == 0 {
			return kernel.Sleep{Cycles: 200_000}
		}
		return kernel.Compute{Cycles: 200_000}
	})
}

// hog is a pure compute loop: steps segments of c cycles each.
func hog(steps int, c uint64) kernel.Program {
	n := 0
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		n++
		if n > steps {
			return kernel.Exit{}
		}
		return kernel.Compute{Cycles: c}
	})
}

// TestHotplugCycleConformance runs the scripted offline→online storm on
// every policy × machine shape.
func TestHotplugCycleConformance(t *testing.T) {
	for _, label := range hotplugSpecs {
		for _, policy := range experiments.Policies {
			label, policy := label, policy
			t.Run(fmt.Sprintf("%s/%s", policy, label), func(t *testing.T) {
				t.Parallel()
				spec := experiments.SpecByLabel(label)
				cycled := []int{1, spec.CPUs / 2, spec.CPUs - 1}
				onlineAt := make(map[int]sim.Time)
				lastDispatch := make(map[int]sim.Time)

				var m *kernel.Machine
				cfg := kernel.Config{
					CPUs: spec.CPUs, SMP: spec.SMP, Topology: spec.Topology(),
					Seed: 42, NewScheduler: experiments.Factory(policy),
					MaxCycles: 600 * kernel.DefaultHz, TicklessOff: ticklessOff(),
					Trace: func(ev kernel.TraceEvent) {
						if ev.Next == nil {
							return
						}
						if !m.Env().CPUOnline(ev.CPU) {
							t.Errorf("dispatch of %v on offline cpu%d at t=%d",
								ev.Next, ev.CPU, ev.Now)
						}
						lastDispatch[ev.CPU] = ev.Now
					},
					Watchdog: &kernel.WatchdogConfig{
						OnViolation: func(v kernel.WatchdogViolation) {
							t.Errorf("watchdog fired on a healthy hotplug run: %s", v)
						},
					},
				}
				m = kernel.NewMachine(cfg)
				for i := 0; i < 3*spec.CPUs; i++ {
					m.Spawn(fmt.Sprintf("w%d", i), nil, mixedProg(i))
				}

				audit := func(when string) {
					if err := m.CheckAll(); err != nil {
						t.Errorf("after %s: %v", when, err)
					}
				}
				// Running and blocked tasks meet every transition, and their
				// next re-file, with poisoned tags.
				poison := func() {
					for _, p := range m.Procs() {
						if unfiled(p.Task) {
							scribble(m.Env(), p.Task)
						}
					}
				}
				for i, cpu := range cycled {
					cpu := cpu
					m.Engine().At(sim.Time(5_000_000+uint64(i)*1_000_000), "conf-offline",
						func(now sim.Time) {
							poison()
							if err := m.OfflineCPU(cpu); err != nil {
								t.Errorf("offline cpu%d: %v", cpu, err)
							}
							audit(fmt.Sprintf("offline cpu%d", cpu))
						})
					m.Engine().At(sim.Time(20_000_000+uint64(i)*1_000_000), "conf-online",
						func(now sim.Time) {
							poison()
							if err := m.OnlineCPU(cpu); err != nil {
								t.Errorf("online cpu%d: %v", cpu, err)
							}
							onlineAt[cpu] = now
							audit(fmt.Sprintf("online cpu%d", cpu))
						})
				}

				m.Run(func() bool { return m.Alive() == 0 })
				if m.Alive() != 0 {
					t.Fatalf("%d tasks still alive at the horizon", m.Alive())
				}
				for _, cpu := range cycled {
					if lastDispatch[cpu] <= onlineAt[cpu] {
						t.Errorf("cpu%d never dispatched after coming back at t=%d (last t=%d)",
							cpu, onlineAt[cpu], lastDispatch[cpu])
					}
				}
				if s := m.Stats(); s.CPUOfflines != 3 || s.CPUOnlines != 3 {
					t.Errorf("transition counters %d/%d, want 3/3", s.CPUOfflines, s.CPUOnlines)
				}
				audit("completion")
			})
		}
	}
}

// TestOfflineDrainRefilesPoisonedTasks is the policy-layer half of
// Machine.OfflineCPU on every policy, by hand so the tasks in flight can
// be reached: out of a churned 8-CPU state one CPU goes offline, its
// running task is released and — where the policy gives CPUs their own
// queues — its queue drained, and each of those tasks is re-filed with
// its tags poisoned. Nothing is lost, nothing lands on the dead CPU's
// queue, and the survivors schedule every task.
func TestOfflineDrainRefilesPoisonedTasks(t *testing.T) {
	const ncpu, dead = 8, 3
	n := 3 * ncpu
	forEach(t, ncpu, n, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tasks[i] = mkTask(env, i+1, 1+(i*3)%40, 2+i%12)
			s.AddToRunqueue(tasks[i])
		}
		h := newHarness(s, ncpu)
		var blocked []*task.Task
		churn(h, ncpu, 6, &blocked)

		want := s.Runnable()
		env.SetCPUOnline(dead, false)
		if tk := h.release(env, dead); tk != nil && tk.Runnable() {
			want++
		}
		if s.Visibility() == sched.VisibleOwner {
			for _, tk := range s.Drain(dead, nil) {
				if tk.OnRunqueue() {
					t.Fatalf("drained task %v still on the run queue", tk)
				}
				scribble(env, tk)
				s.AddToRunqueue(tk)
				if !tk.OnRunqueue() || tk.QIndex == dead {
					t.Fatalf("drained task %v re-filed on queue %d (queued=%v), want a survivor's",
						tk, tk.QIndex, tk.OnRunqueue())
				}
			}
		}
		if got := s.Runnable(); got != want {
			t.Fatalf("Runnable = %d after the drain and re-file, want %d", got, want)
		}
		for _, tk := range blocked {
			if unfiled(tk) { // one blocked in churn's last round is still current
				scribble(env, tk)
			}
		}

		picked := map[*task.Task]bool{}
		for _, cur := range h.current {
			if cur != nil {
				picked[cur] = true
			}
		}
		if i := h.pickAll(dead, tasks, picked); i >= 0 {
			t.Fatalf("task %d never scheduled by the survivors", i)
		}
	})
}

// TestHotplugPinnedFallbackConformance: on every policy, a task affined
// solely to CPU 2 of an 8P machine keeps making progress while that CPU
// is down (cpuset fallback widens it to the survivors) and, once the CPU
// returns and the original mask is restored, finishes on CPU 2.
func TestHotplugPinnedFallbackConformance(t *testing.T) {
	for _, policy := range experiments.Policies {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			m := kernel.NewMachine(kernel.Config{
				CPUs: 8, SMP: true, Seed: 42,
				NewScheduler: experiments.Factory(policy),
				MaxCycles:    600 * kernel.DefaultHz,
				TicklessOff:  ticklessOff(),
			})
			pinned := m.Spawn("pinned", nil, hog(1200, 1_000_000)) // ~300 ticks of work
			m.SetAffinity(pinned, 1<<2)
			for i := 0; i < 8; i++ {
				m.Spawn(fmt.Sprintf("bg%d", i), nil, hog(400, 1_000_000))
			}
			m.Run(func() bool { return pinned.Task.UserCycles > 0 })

			if err := m.OfflineCPU(2); err != nil {
				t.Fatal(err)
			}
			if pinned.Task.CPUsAllowed != 0 {
				t.Fatalf("cpuset fallback not applied: mask %#x", pinned.Task.CPUsAllowed)
			}
			// Progress window longer than a full default quantum: another
			// task may hold a survivor until its quantum expires before the
			// widened task gets a turn.
			before := pinned.Task.UserCycles
			target := m.Now() + sim.Time(45*kernel.DefaultTickCycles)
			m.Run(func() bool { return m.Now() >= target })
			if pinned.Task.UserCycles <= before {
				t.Fatal("pinned task made no progress under cpuset fallback")
			}

			if err := m.OnlineCPU(2); err != nil {
				t.Fatal(err)
			}
			if pinned.Task.CPUsAllowed != 1<<2 {
				t.Fatalf("affinity not restored at online: mask %#x", pinned.Task.CPUsAllowed)
			}
			m.Run(func() bool { return pinned.Exited() })
			if !pinned.Exited() {
				t.Fatal("pinned task never finished")
			}
			if pinned.Task.Processor != 2 {
				t.Fatalf("re-pinned task finished on CPU %d, want 2", pinned.Task.Processor)
			}
			// The affinity restore must deliver a real kick to CPU 2 —
			// under tickless idle there is no tick left to rescue a task
			// stranded on a parked CPU's queue.
			if n := m.Stats().IdleTickRescues; n != 0 {
				t.Fatalf("idle_tick_rescues = %d, want 0", n)
			}
		})
	}
}
