package cfs

import (
	"fmt"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/task"
)

func mkTask(env *sched.Env, id, prio, counter int) *task.Task {
	t := task.New(id, fmt.Sprintf("t%d", id), nil, env.Epoch)
	t.Priority = prio
	t.SetCounter(env.Epoch, counter)
	return t
}

func mkIdle(cpu int) *task.Task {
	t := task.New(-(cpu + 1), fmt.Sprintf("idle/%d", cpu), nil, nil)
	t.IsIdle = true
	t.Processor = cpu
	return t
}

// schedule drives one kernel-faithful schedule() on cpu: prev is still
// HasCPU during the call, the flip happens after, as kernel.reschedule
// does.
func schedule(s *Sched, cpu int, idle *task.Task, current *task.Task) *task.Task {
	prev := current
	if prev == nil {
		prev = idle
	}
	res := s.Schedule(cpu, prev)
	if !prev.IsIdle {
		prev.HasCPU = false
	}
	if res.Next != nil {
		res.Next.HasCPU = true
		res.Next.Processor = cpu
		res.Next.EverRan = true
	}
	return res.Next
}

// TestWeightTableShape pins the weight mapping: 1024 at the default
// priority (nice 0), strictly monotone in priority, geometric at ~1.25
// per step, and the headline proportionality ratios the two-hog cells
// below measure end to end.
func TestWeightTableShape(t *testing.T) {
	if w := Weight(task.DefaultPriority); w != 1024 {
		t.Fatalf("Weight(%d) = %d, want 1024", task.DefaultPriority, w)
	}
	for p := task.MinPriority + 1; p <= task.MaxPriority; p++ {
		lo, hi := Weight(p-1), Weight(p)
		if hi <= lo {
			t.Fatalf("weight not monotone: Weight(%d)=%d <= Weight(%d)=%d", p, hi, p-1, lo)
		}
		ratio := float64(hi) / float64(lo)
		if ratio < 1.15 || ratio > 1.35 {
			t.Fatalf("step ratio Weight(%d)/Weight(%d) = %.3f outside the ~1.25 geometric band", p, p-1, ratio)
		}
	}
	// Out-of-range priorities clamp to the table ends.
	if Weight(0) != Weight(task.MinPriority) || Weight(99) != Weight(task.MaxPriority) {
		t.Fatal("out-of-range priorities must clamp to the table ends")
	}
	// Three steps ≈ doubling; eight steps ≈ 6× — the ratios the CPU-share
	// cells assert against.
	if r := float64(Weight(23)) / 1024; r < 1.8 || r > 2.1 {
		t.Fatalf("Weight(23)/Weight(20) = %.3f, want ~2 (double weight three steps up)", r)
	}
	if r := float64(Weight(28)) / 1024; r < 5.5 || r > 6.4 {
		t.Fatalf("Weight(28)/Weight(20) = %.3f, want ~6 (eight geometric steps)", r)
	}
}

func cfsMachine(cpus int) *kernel.Machine {
	return kernel.NewMachine(kernel.Config{
		CPUs:         cpus,
		SMP:          cpus > 1,
		Seed:         42,
		NewScheduler: func(env *sched.Env) sched.Scheduler { return New(env) },
		MaxCycles:    100 * kernel.DefaultHz,
	})
}

func hog(chunks int, c uint64) kernel.Program {
	i := 0
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if i >= chunks {
			return kernel.Exit{}
		}
		i++
		return kernel.Compute{Cycles: c}
	})
}

// shareRatio runs two hogs with the given priorities on one CPU until
// the heavier exits and returns the ratio of user cycles received.
func shareRatio(t *testing.T, hiPrio, loPrio int) float64 {
	t.Helper()
	m := cfsMachine(1)
	work := uint64(400 * kernel.DefaultTickCycles)
	hi := m.Spawn("hi", nil, hog(1, work))
	lo := m.Spawn("lo", nil, hog(1, work))
	m.SetPriority(hi, hiPrio)
	m.SetPriority(lo, loPrio)
	m.Run(func() bool { return hi.Exited() || lo.Exited() })
	if lo.Task.UserCycles == 0 {
		t.Fatalf("priority-%d hog starved entirely against priority-%d", loPrio, hiPrio)
	}
	return float64(hi.Task.UserCycles) / float64(lo.Task.UserCycles)
}

// TestDoubleWeightDoublesCPUShare is the weighted-fairness demonstration
// measured end to end on a real machine: a Priority-23 hog carries ~2×
// the weight of a Priority-20 hog (three geometric steps), so while both
// compete for one CPU it must receive ~2× the user cycles, within ±15%.
func TestDoubleWeightDoublesCPUShare(t *testing.T) {
	want := float64(Weight(23)) / float64(Weight(20)) // ≈ 1.94
	got := shareRatio(t, 23, 20)
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("priority-23 vs 20 CPU share = %.3f, want %.3f ±15%%", got, want)
	}
}

// TestPriority28ShareTracksWeight extends the same cell eight steps up:
// a Priority-28 hog's share of the CPU against a Priority-20 hog must
// track the weight ratio (~6×, the geometric table at 1.25^8) within
// ±15% — proportionality holds across the table, not just near nice 0.
func TestPriority28ShareTracksWeight(t *testing.T) {
	want := float64(Weight(28)) / float64(Weight(20)) // ≈ 5.96
	got := shareRatio(t, 28, 20)
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("priority-28 vs 20 CPU share = %.3f, want %.3f ±15%%", got, want)
	}
}

// TestMinVruntimeMonotone drives a two-CPU scheduler through forks,
// blocks, wakes, and cross-queue steals, asserting each queue's
// min_vruntime never decreases — the invariant the sleeper clamp and
// migration renorm anchor to.
func TestMinVruntimeMonotone(t *testing.T) {
	const ncpu = 2
	env := sched.NewEnv(ncpu, true, func() int { return 16 })
	s := New(env)
	idles := []*task.Task{mkIdle(0), mkIdle(1)}
	current := make([]*task.Task, ncpu)

	var tasks []*task.Task
	for i := 0; i < 8; i++ {
		tk := mkTask(env, i+1, 1+(i*5)%40, 4)
		tasks = append(tasks, tk)
		s.AddToRunqueue(tk)
	}

	last := []uint64{s.rqs[0].minVR, s.rqs[1].minVR}
	var blocked []*task.Task
	nextID := 100
	for step := 0; step < 400; step++ {
		cpu := step % ncpu
		if cur := current[cpu]; cur != nil {
			// Simulate a tick of execution so vruntime advances.
			cur.UserCycles += 4_000_000
			switch step % 7 {
			case 3:
				cur.State = task.Interruptible
				blocked = append(blocked, cur)
			case 5:
				cur.Yielded = true
			}
		}
		current[cpu] = schedule(s, cpu, idles[cpu], current[cpu])
		for q := 0; q < ncpu; q++ {
			if vr := s.rqs[q].minVR; vr < last[q] {
				t.Fatalf("step %d: min_vruntime on cpu %d went backwards: %d -> %d", step, q, last[q], vr)
			} else {
				last[q] = vr
			}
		}
		if step%11 == 0 && len(blocked) > 0 {
			wake := blocked[0]
			blocked = blocked[1:]
			wake.State = task.Running
			s.AddToRunqueue(wake) // wake: the placement clamp path
		}
		if step%13 == 0 {
			tk := mkTask(env, nextID, 1+(step*3)%40, 4) // fork
			nextID++
			tasks = append(tasks, tk)
			s.AddToRunqueue(tk)
		}
	}
}

// TestSleeperClampBound pins the placement rule: a waking task whose
// virtual clock lags the queue is boosted to exactly min_vruntime minus
// one latency period — never further — and a task ahead of the queue
// keeps its own clock.
func TestSleeperClampBound(t *testing.T) {
	env := sched.NewEnv(1, false, func() int { return 4 })
	s := New(env)
	idle := mkIdle(0)

	// Advance the queue's clock: two hogs alternating under simulated
	// ticks until min_vruntime is well past the sleeper bonus.
	a := mkTask(env, 1, 20, 4)
	b := mkTask(env, 2, 20, 4)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	var cur *task.Task
	for i := 0; i < 100; i++ {
		if cur != nil {
			cur.UserCycles += 4_000_000
		}
		cur = schedule(s, 0, idle, cur)
	}
	minVR := s.rqs[0].minVR
	if minVR <= sleeperBonus {
		t.Fatalf("hogs advanced min_vruntime only to %d, not past the sleeper bonus %d", minVR, sleeperBonus)
	}

	// A long sleeper (vruntime 0) is pulled up to the floor, not beyond.
	sleeper := mkTask(env, 3, 20, 4)
	s.AddToRunqueue(sleeper)
	if want := minVR - sleeperBonus; sleeper.VRuntime != want {
		t.Fatalf("sleeper clamped to %d, want min_vruntime-bonus = %d", sleeper.VRuntime, want)
	}

	// A task ahead of the queue keeps its own clock — no backward clamp.
	ahead := mkTask(env, 4, 20, 4)
	ahead.VRuntime = minVR + 12345
	s.AddToRunqueue(ahead)
	if ahead.VRuntime != minVR+12345 {
		t.Fatalf("ahead-of-queue task's clock rewritten to %d", ahead.VRuntime)
	}
}

// TestRRQuantumExpiryRotatesLevelPeers pins the SCHED_RR contract: a
// runner whose quantum just expired re-enters the TAIL of its rt level,
// so two equal-priority RR hogs strictly alternate instead of the
// expired runner re-winning from the head of the list forever.
func TestRRQuantumExpiryRotatesLevelPeers(t *testing.T) {
	env := sched.NewEnv(1, false, func() int { return 2 })
	s := New(env)
	idle := mkIdle(0)
	a := task.NewRT(1, "rrA", task.RR, 50, env.Epoch)
	b := task.NewRT(2, "rrB", task.RR, 50, env.Epoch)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)

	cur := schedule(s, 0, idle, nil)
	for i := 0; i < 8; i++ {
		cur.SetCounter(env.Epoch, 0) // burn the quantum
		next := schedule(s, 0, idle, cur)
		if next == cur {
			t.Fatalf("round %d: expired RR task re-picked from the head; its level peer starves", i)
		}
		if next.Counter(env.Epoch) == 0 {
			t.Fatalf("round %d: expired RR task re-picked without a quantum refill", i)
		}
		cur = next
	}
}

// TestTickPreemptRTLevelComparison pins the tick-preemption rules for
// real-time runners: a queued RT task preempts a fair runner
// unconditionally but an RT runner only from a strictly better level —
// an equal-level RR peer waits for quantum expiry and a worse one for
// the runner to block, so neither forces a per-tick resched storm.
func TestTickPreemptRTLevelComparison(t *testing.T) {
	env := sched.NewEnv(1, false, func() int { return 4 })
	s := New(env)
	runner := task.NewRT(1, "runner", task.RR, 50, env.Epoch)
	runner.HasCPU = true
	runner.EverRan = true

	s.AddToRunqueue(task.NewRT(2, "worse", task.FIFO, 10, env.Epoch))
	if preempt, _ := s.TickPreempt(0, runner); preempt {
		t.Fatal("queued rt_priority-10 task preempted an rt_priority-50 runner")
	}
	s.AddToRunqueue(task.NewRT(3, "peer", task.RR, 50, env.Epoch))
	if preempt, _ := s.TickPreempt(0, runner); preempt {
		t.Fatal("equal-level RR peer must wait for quantum expiry, not tick-preempt")
	}
	s.AddToRunqueue(task.NewRT(4, "better", task.FIFO, 70, env.Epoch))
	preempt, rotation := s.TickPreempt(0, runner)
	if !preempt || rotation {
		t.Fatalf("strictly better queued level: got preempt=%v rotation=%v, want true/false", preempt, rotation)
	}
	fair := mkTask(env, 5, 20, 4)
	fair.HasCPU = true
	if preempt, _ := s.TickPreempt(0, fair); !preempt {
		t.Fatal("any queued RT task must preempt a fair runner")
	}
}

// TestAddToRunqueueRenormsOnRehome: a task Home re-homes away from its
// last CPU (offlined here) carries a vruntime relative to that queue's
// fast clock; AddToRunqueue must rebase it to the new queue's clock
// preserving the lag, exactly as PlaceWake does — placeClamp alone only
// bounds the lagging side and would park the task far in the new
// queue's future.
func TestAddToRunqueueRenormsOnRehome(t *testing.T) {
	env := sched.NewEnv(2, true, func() int { return 4 })
	s := New(env)
	s.rqs[1].minVR = 50 * sleeperBonus // queue 1's clock ran far ahead
	s.rqs[0].minVR = 3 * sleeperBonus

	tk := mkTask(env, 1, 20, 4)
	tk.EverRan = true
	tk.Processor = 1
	tk.VRuntime = s.rqs[1].minVR + 1000 // slightly ahead of its old queue

	env.SetCPUOnline(1, false) // re-home: the task's last CPU is gone
	s.AddToRunqueue(tk)
	if s.bal.Len[0] != 1 {
		t.Fatalf("re-homed task not filed on queue 0 (len %d)", s.bal.Len[0])
	}
	if want := s.rqs[0].minVR + 1000; tk.VRuntime != want {
		t.Fatalf("re-homed vruntime = %d, want lag-preserving rebase to %d", tk.VRuntime, want)
	}
}

// TestYieldRehomeRenormsBeforeWatermark: when sched_yield coincides with
// a re-home (affinity narrowed mid-run), the yielding task's vruntime is
// rebased to the new queue's clock before the maxVR watermark
// comparison — raw clocks from different queues are not comparable, and
// an unrenormed fast-queue value would skip the park entirely.
func TestYieldRehomeRenormsBeforeWatermark(t *testing.T) {
	env := sched.NewEnv(2, true, func() int { return 4 })
	s := New(env)
	s.rqs[0].minVR = 40 * sleeperBonus // fast clock where the task ran
	s.rqs[1].minVR = 2 * sleeperBonus
	s.rqs[1].maxVR = 2*sleeperBonus + 500

	prev := mkTask(env, 1, 20, 4)
	prev.EverRan = true
	prev.HasCPU = true
	prev.Processor = 0
	prev.VRuntime = s.rqs[0].minVR + 100
	prev.Yielded = true
	prev.CPUsAllowed = 1 << 1 // narrowed mid-run: home is now CPU 1

	s.Schedule(0, prev)
	if !prev.OnRunqueue() || prev.RunList.InListProper() || prev.QIndex != 1 {
		t.Fatalf("yielding task filed on queue %d (queued=%v, in a list=%v), want queue 1's heap",
			prev.QIndex, prev.OnRunqueue(), prev.RunList.InListProper())
	}
	// The renormed clock (min_vruntime+100) loses to the watermark park:
	// the task lands at maxVR in queue-1 units, behind every queued task,
	// not at its raw queue-0 clock far past it.
	if prev.VRuntime != 2*sleeperBonus+500 {
		t.Fatalf("yielded vruntime = %d, want the home queue watermark %d", prev.VRuntime, 2*sleeperBonus+500)
	}
}

// TestZeroAllocSteadyState pins the indexed-heap promise: once the
// backing array has grown, the schedule→requeue→pick cycle allocates
// nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	env := sched.NewEnv(1, false, func() int { return 8 })
	s := New(env)
	idle := mkIdle(0)
	for i := 0; i < 8; i++ {
		s.AddToRunqueue(mkTask(env, i+1, 1+(i*5)%40, 4))
	}
	var cur *task.Task
	for i := 0; i < 64; i++ { // warm the heap's backing array
		if cur != nil {
			cur.UserCycles += 4_000_000
		}
		cur = schedule(s, 0, idle, cur)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if cur != nil {
			cur.UserCycles += 4_000_000
		}
		cur = schedule(s, 0, idle, cur)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule cycle allocates %.1f objects/op, want 0", allocs)
	}
}
