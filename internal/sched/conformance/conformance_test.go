// Package conformance holds the cross-scheduler invariant suite: every
// scheduling policy in the repository — the stock 2.3.99 scheduler, ELSC,
// and the three future-work designs (heap, mq, o1) — is run table-driven
// through the same sched.Scheduler contract checks. The paper's design
// goal 1 ("Do not change current interfaces") is what makes the policies
// drop-in replacements; this suite is what keeps them that way as the
// lineup grows.
//
// The suite emulates the kernel's calling conventions exactly: Schedule
// is invoked with the previous task still marked HasCPU, the HasCPU flip
// happens after Schedule returns, and policies implementing NoteRunning
// (the stock scheduler keeps running tasks on the queue) are notified of
// the flips, as kernel.reschedule does.
package conformance

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
	"elsc/internal/task"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// forEach runs fn once per registered policy as a subtest. The policy
// list and factories come from the experiments registry, so a scheduler
// added there is automatically held to this contract.
func forEach(t *testing.T, ncpu int, ntasks int, fn func(t *testing.T, s sched.Scheduler, env *sched.Env)) {
	t.Helper()
	for _, name := range experiments.Policies {
		name := name
		t.Run(name, func(t *testing.T) {
			env := sched.NewEnv(ncpu, ncpu > 1, func() int { return ntasks })
			fn(t, experiments.Factory(name)(env), env)
		})
	}
}

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

// drainAll empties s the way Machine.SwitchPolicy does: every queue the
// kernel keeps a lock for, one under VisibleAll and ncpu under
// VisibleOwner, in order.
func drainAll(s sched.Scheduler, ncpu int) []*task.Task {
	nq := 1
	if s.Visibility() == sched.VisibleOwner {
		nq = ncpu
	}
	var out []*task.Task
	for q := 0; q < nq; q++ {
		out = s.Drain(q, out)
	}
	return out
}

// scribble poisons the policy-private tags of a task no policy holds: a
// policy that reads one before writing it indexes out of range (QIndex),
// or, if it is ELSC, takes the task for a parked one (QZero stamped with
// the current epoch). It stands where a reset of the tags used to: a
// running, blocked or drained task crosses a policy swap or a hotplug
// re-file carrying whatever its last policy left, and nobody may look.
func scribble(env *sched.Env, tk *task.Task) {
	if !unfiled(tk) {
		panic(fmt.Sprintf("scribbling on queued task %v", tk))
	}
	tk.QIndex, tk.QZero, tk.QStamp = -1-tk.ID, true, env.Epoch.N()
}

// unfiled reports whether no policy structure holds tk: it is off the run
// queue, or it is the running task ELSC keeps marked queued outside its
// table (footnote 3; heap and cfs dequeue what they dispatch).
func unfiled(tk *task.Task) bool {
	return !tk.OnRunqueue() || tk.HasCPU && !tk.RunList.InListProper()
}

// release takes cpu's running task away from it the way the kernel does
// when the CPU goes offline (kernel.Machine.release): Del-then-Add, with
// the tags poisoned in between. It returns the task, nil if cpu was idle.
func (h *harness) release(env *sched.Env, cpu int) *task.Task {
	tk := h.current[cpu]
	if tk == nil {
		return nil
	}
	h.current[cpu] = nil
	if h.ops.NoteRunning != nil && tk.OnRunqueue() {
		h.ops.NoteRunning(tk, false)
	}
	tk.HasCPU = false
	h.s.DelFromRunqueue(tk)
	scribble(env, tk)
	h.s.AddToRunqueue(tk)
	return tk
}

// pickAll drives every CPU but dead (-1: none) until every task has been
// picked at least once (picked carries those already seen), blocking each
// pick and re-waking it so nothing is starved out of the census. It
// returns the index of a task never scheduled, -1 if all were.
func (h *harness) pickAll(dead int, tasks []*task.Task, picked map[*task.Task]bool) int {
	for left := 0; left < 20*len(tasks) && len(picked) < len(tasks); left++ {
		for cpu := range h.current {
			if cpu == dead {
				continue
			}
			if next := h.schedule(cpu); next != nil {
				picked[next] = true
				h.block(cpu)
				h.schedule(cpu)
			}
		}
		for _, tk := range tasks {
			if !tk.Runnable() && !picked[tk] {
				tk.State = task.Running
				h.s.AddToRunqueue(tk)
			}
		}
	}
	for i, tk := range tasks {
		if !picked[tk] {
			return i
		}
	}
	return -1
}

// harness drives one scheduler exactly as kernel.reschedule does,
// tracking which task each CPU is running.
type harness struct {
	s       sched.Scheduler
	ops     sched.Ops // s's capability table, as the kernel resolves it
	idles   []*task.Task
	current []*task.Task
	last    sched.Result // what the latest schedule() reported
}

func newHarness(s sched.Scheduler, ncpu int) *harness {
	h := &harness{s: s, ops: sched.OpsOf(s), idles: make([]*task.Task, ncpu), current: make([]*task.Task, ncpu)}
	for i := range h.idles {
		h.idles[i] = mkIdle(i)
	}
	return h
}

// schedule performs one kernel-faithful schedule() on cpu and returns the
// chosen task (nil for idle).
func (h *harness) schedule(cpu int) *task.Task {
	prev := h.current[cpu]
	prevTask := h.idles[cpu]
	if prev != nil {
		prevTask = prev
	}
	h.current[cpu] = nil
	res := h.s.Schedule(cpu, prevTask)
	h.last = res
	noter := h.ops.NoteRunning
	if prev != nil {
		if noter != nil && prev.OnRunqueue() {
			noter(prev, false)
		}
		prev.HasCPU = false
	}
	if next := res.Next; next != nil {
		next.HasCPU = true
		next.Processor = cpu
		next.EverRan = true
		if noter != nil && next.OnRunqueue() {
			noter(next, true)
		}
		h.current[cpu] = next
	}
	return res.Next
}

// block marks cpu's current task no longer runnable; the next schedule()
// on that CPU dequeues it, as the kernel does inside schedule().
func (h *harness) block(cpu int) {
	if h.current[cpu] != nil {
		h.current[cpu].State = task.Interruptible
	}
}

func TestAddDelNoLossNoDuplication(t *testing.T) {
	const n = 12
	forEach(t, 1, n, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tasks[i] = mkTask(env, i+1, 1+(i*3)%40, 5+i)
			s.AddToRunqueue(tasks[i])
			if !tasks[i].OnRunqueue() {
				t.Fatalf("task %d not on run queue after add", i)
			}
		}
		if got := s.Runnable(); got != n {
			t.Fatalf("Runnable = %d after %d adds, want %d", got, n, n)
		}
		// Double add must be idempotent — a task can never be queued twice.
		for _, tk := range tasks {
			s.AddToRunqueue(tk)
		}
		if got := s.Runnable(); got != n {
			t.Fatalf("Runnable = %d after double adds, want %d", got, n)
		}
		// Delete half, re-add, delete all: nothing lost, nothing left.
		for i := 0; i < n; i += 2 {
			s.DelFromRunqueue(tasks[i])
			if tasks[i].OnRunqueue() {
				t.Fatalf("task %d still on run queue after del", i)
			}
		}
		if got := s.Runnable(); got != n/2 {
			t.Fatalf("Runnable = %d after deleting half, want %d", got, n/2)
		}
		for i := 0; i < n; i += 2 {
			s.AddToRunqueue(tasks[i])
		}
		for _, tk := range tasks {
			s.DelFromRunqueue(tk)
			s.DelFromRunqueue(tk) // double delete must be a no-op
		}
		if got := s.Runnable(); got != 0 {
			t.Fatalf("Runnable = %d after deleting all, want 0", got)
		}
	})
}

func TestEveryTaskScheduledExactlyOnce(t *testing.T) {
	const n = 16
	forEach(t, 1, n, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tasks[i] = mkTask(env, i+1, 1+(i*7)%40, 4+i%10)
			s.AddToRunqueue(tasks[i])
		}
		h := newHarness(s, 1)
		picked := map[*task.Task]int{}
		for i := 0; i <= n; i++ {
			next := h.schedule(0)
			if next == nil {
				break
			}
			picked[next]++
			h.block(0) // task runs once, then blocks
		}
		for i, tk := range tasks {
			if picked[tk] != 1 {
				t.Fatalf("task %d scheduled %d times, want exactly once", i, picked[tk])
			}
		}
		if len(picked) != n {
			t.Fatalf("%d distinct tasks scheduled, want %d", len(picked), n)
		}
	})
}

func TestBlockedTaskLeavesQueue(t *testing.T) {
	forEach(t, 1, 2, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		a := mkTask(env, 1, 20, 10)
		b := mkTask(env, 2, 20, 10)
		s.AddToRunqueue(a)
		s.AddToRunqueue(b)
		h := newHarness(s, 1)
		first := h.schedule(0)
		if first == nil {
			t.Fatal("nothing scheduled")
		}
		h.block(0)
		second := h.schedule(0)
		if second == first || second == nil {
			t.Fatalf("after blocking, picked %v", second)
		}
		if first.OnRunqueue() {
			t.Fatal("blocked task still on the run queue")
		}
	})
}

func TestAffinityMaskRespected(t *testing.T) {
	forEach(t, 2, 4, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		pinned := make([]*task.Task, 4)
		for i := range pinned {
			pinned[i] = mkTask(env, i+1, 20, 10)
			pinned[i].CPUsAllowed = 1 << 1 // CPU 1 only
			s.AddToRunqueue(pinned[i])
		}
		h := newHarness(s, 2)
		if got := h.schedule(0); got != nil {
			t.Fatalf("CPU 0 scheduled %v despite every task being pinned to CPU 1", got)
		}
		if got := h.schedule(1); got == nil {
			t.Fatal("CPU 1 found nothing although four tasks are pinned to it")
		}
	})
}

func TestAffinitySplitAcrossCPUs(t *testing.T) {
	forEach(t, 2, 2, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		a := mkTask(env, 1, 20, 10)
		a.CPUsAllowed = 1 << 0
		b := mkTask(env, 2, 20, 10)
		b.CPUsAllowed = 1 << 1
		s.AddToRunqueue(a)
		s.AddToRunqueue(b)
		h := newHarness(s, 2)
		if got := h.schedule(0); got != a {
			t.Fatalf("CPU 0 ran %v, want its pinned task", got)
		}
		if got := h.schedule(1); got != b {
			t.Fatalf("CPU 1 ran %v, want its pinned task", got)
		}
	})
}

func TestRealTimeAlwaysBeatsTimesharing(t *testing.T) {
	forEach(t, 1, 2, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		// The best possible SCHED_OTHER task: max priority, full quantum,
		// cache-affine to the scheduling CPU.
		best := mkTask(env, 1, task.MaxPriority, 2*task.MaxPriority)
		best.EverRan = true
		best.Processor = 0
		// The weakest possible real-time task.
		rt := task.NewRT(2, "rt", task.FIFO, task.MinRTPriority, env.Epoch)
		s.AddToRunqueue(best)
		s.AddToRunqueue(rt)
		h := newHarness(s, 1)
		if got := h.schedule(0); got != rt {
			t.Fatalf("scheduled %v, want the real-time task first", got)
		}
	})
}

func TestHigherRTPriorityWins(t *testing.T) {
	forEach(t, 1, 2, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		lo := task.NewRT(1, "rt10", task.FIFO, 10, env.Epoch)
		hi := task.NewRT(2, "rt90", task.FIFO, 90, env.Epoch)
		s.AddToRunqueue(lo)
		s.AddToRunqueue(hi)
		h := newHarness(s, 1)
		if got := h.schedule(0); got != hi {
			t.Fatalf("scheduled %v, want rt_priority 90 before 10", got)
		}
	})
}

// TestMoveFirstWinsTie: 2.3.99's move_first_runqueue — sched_setscheduler
// moves the task to the front of its queue — is delivered by the re-file
// the kernel does around any change to what a task is indexed by
// (DelFromRunqueue, change, AddToRunqueue; Machine.requeue). Under the
// policies that keep equals in a list the re-filed task leads the equal
// that was already waiting, SCHED_OTHER or real-time; heap orders equal
// keys by arrival and cfs's fair class by enqueue order at equal vruntime,
// so there the waiting task keeps the tie.
func TestMoveFirstWinsTie(t *testing.T) {
	forEach(t, 1, 4, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		rt := []*task.Task{task.NewRT(1, "fifo-a", task.FIFO, 50, env.Epoch), task.NewRT(2, "fifo-b", task.FIFO, 50, env.Epoch)}
		other := []*task.Task{mkTask(env, 3, 20, 10), mkTask(env, 4, 20, 10)}
		for _, pair := range [][]*task.Task{rt, other} {
			s.AddToRunqueue(pair[0])
			s.AddToRunqueue(pair[1])
			s.DelFromRunqueue(pair[0])
			s.AddToRunqueue(pair[0])
		}
		want := []*task.Task{rt[0], rt[1], other[0], other[1]}
		switch s.Name() {
		case experiments.Heap:
			want = []*task.Task{rt[1], rt[0], other[1], other[0]}
		case experiments.CFS:
			want[2], want[3] = other[1], other[0]
		}
		h := newHarness(s, 1)
		for i := range want {
			if got := h.schedule(0); got != want[i] {
				t.Fatalf("pick %d is %v, want %v (the first of each pair was re-filed)", i, got, want[i])
			}
			h.block(0)
		}
	})
}

// TestMoveLastLosesTie: 2.3.99's move_last_runqueue is what a policy's
// Schedule does to a SCHED_RR prev whose quantum expired: recharge it and
// file it behind its rt_priority equals. Three equal round-robin tasks on
// one CPU must take turns — any three consecutive quanta go to three
// different tasks, one that has never run included — while a lower
// rt_priority and the best SCHED_OTHER task wait; and an expiry is not a
// yield: the last of the three left runnable is picked again over the
// lower level.
func TestMoveLastLosesTie(t *testing.T) {
	forEach(t, 1, 5, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		other := mkTask(env, 1, task.MaxPriority, 2*task.MaxPriority)
		lower := task.NewRT(2, "rr40", task.RR, 40, env.Epoch)
		s.AddToRunqueue(other)
		s.AddToRunqueue(lower)
		rrs := map[*task.Task]bool{}
		for id := 3; id <= 5; id++ {
			rr := task.NewRT(id, fmt.Sprintf("rr50-%d", id), task.RR, 50, env.Epoch)
			rrs[rr] = true
			s.AddToRunqueue(rr)
		}
		h := newHarness(s, 1)
		var ran []*task.Task
		for q := 0; q < 7; q++ {
			next := h.schedule(0)
			if !rrs[next] {
				t.Fatalf("quantum %d went to %v with three rt_priority 50 tasks runnable", q, next)
			}
			if next.Counter(env.Epoch) == 0 {
				t.Fatalf("quantum %d: %v dispatched with an empty quantum", q, next)
			}
			for _, before := range ran[max(0, len(ran)-2):] {
				if next == before {
					t.Fatalf("quantum %d went to %v again, after %v: round-robin equals must rotate", q, next, ran)
				}
			}
			ran = append(ran, next)
			next.SetCounter(env.Epoch, 0) // the tick runs the quantum out
		}
		// Two of the three block; the one left expires with only the
		// lower levels queued, and keeps the CPU.
		last := h.current[0]
		for rr := range rrs {
			if rr != last {
				s.DelFromRunqueue(rr)
			}
		}
		if got := h.schedule(0); got != last {
			t.Fatalf("scheduled %v, want the expired %v again: it still beats rt_priority 40", got, last)
		}
	})
}

// TestMoveOnUnqueuedTaskIsNoop: the rotation must not enqueue a task that
// is leaving the queue — a SCHED_RR prev whose quantum ran out as it
// blocked is off the run queue after schedule(), and an ordinary wake-up
// files it again.
func TestMoveOnUnqueuedTaskIsNoop(t *testing.T) {
	forEach(t, 1, 1, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		a := task.NewRT(1, "rr", task.RR, 50, env.Epoch)
		s.AddToRunqueue(a)
		h := newHarness(s, 1)
		if got := h.schedule(0); got != a {
			t.Fatalf("scheduled %v, want %v", got, a)
		}
		a.SetCounter(env.Epoch, 0)
		h.block(0)
		if got := h.schedule(0); got != nil {
			t.Fatalf("scheduled %v, want idle: the only task blocked", got)
		}
		if s.Runnable() != 0 || a.OnRunqueue() {
			t.Fatal("the rotation of an expired, blocked task must not enqueue it")
		}
		a.State = task.Running
		s.AddToRunqueue(a)
		if got := h.schedule(0); got != a {
			t.Fatalf("scheduled %v after the wake-up, want %v", got, a)
		}
	})
}

func TestYieldBitConsumed(t *testing.T) {
	forEach(t, 1, 2, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		a := mkTask(env, 1, 20, 10)
		b := mkTask(env, 2, 20, 10)
		s.AddToRunqueue(a)
		s.AddToRunqueue(b)
		h := newHarness(s, 1)
		first := h.schedule(0)
		if first == nil {
			t.Fatal("nothing scheduled")
		}
		first.Yielded = true
		next := h.schedule(0)
		if first.Yielded {
			t.Fatal("schedule() must consume the SCHED_YIELD bit")
		}
		if next != a && next != b {
			t.Fatalf("scheduled %v after yield, want a runnable task", next)
		}
		// Neither task may be lost across the yield.
		queued := 0
		for _, tk := range []*task.Task{a, b} {
			if tk.OnRunqueue() || tk == next {
				queued++
			}
		}
		if queued != 2 {
			t.Fatalf("%d of 2 tasks tracked after yield, want both", queued)
		}
	})
}

func TestLoneYielderIsRerun(t *testing.T) {
	forEach(t, 1, 1, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		a := mkTask(env, 1, 20, 10)
		s.AddToRunqueue(a)
		h := newHarness(s, 1)
		if got := h.schedule(0); got != a {
			t.Fatal("lone task not scheduled")
		}
		a.Yielded = true
		if got := h.schedule(0); got != a {
			t.Fatalf("lone yielding task must be re-run, got %v", got)
		}
	})
}

func TestEmptyQueueSchedulesIdle(t *testing.T) {
	forEach(t, 1, 0, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		h := newHarness(s, 1)
		if got := h.schedule(0); got != nil {
			t.Fatalf("empty queue scheduled %v, want idle", got)
		}
		if s.Runnable() != 0 {
			t.Fatal("Runnable nonzero on an empty scheduler")
		}
	})
}

// TestMultiCPUNoDoubleRun drives two CPUs over a shared task set and
// checks a task is never running on both at once and none disappears.
func TestMultiCPUNoDoubleRun(t *testing.T) {
	const n = 8
	forEach(t, 2, n, func(t *testing.T, s sched.Scheduler, env *sched.Env) {
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tasks[i] = mkTask(env, i+1, 20, 10)
			s.AddToRunqueue(tasks[i])
		}
		h := newHarness(s, 2)
		for round := 0; round < 50; round++ {
			for cpu := 0; cpu < 2; cpu++ {
				h.schedule(cpu)
				if h.current[0] != nil && h.current[0] == h.current[1] {
					t.Fatalf("round %d: task %v running on both CPUs", round, h.current[0])
				}
			}
			// Account for every task: queued or running, never both,
			// never neither.
			for i, tk := range tasks {
				queued := tk.OnRunqueue() && !tk.HasCPU
				running := tk.HasCPU
				if !queued && !running {
					// ELSC's manual dequeue keeps OnRunqueue true for
					// the running task; for all policies a task must be
					// somewhere.
					t.Fatalf("round %d: task %d neither queued nor running", round, i)
				}
			}
		}
	})
}

// TestNUMATopologyHarnessContract drives every policy through the harness
// on each cache-domain machine — the 32-CPU/4-domain spec and the
// 64-CPU/8-domain spec that stresses the two-level balancing hierarchy:
// the topology must change where work lands, never whether it lands.
// Every task is scheduled exactly once and none is lost, exactly as on
// the flat machines above.
func TestNUMATopologyHarnessContract(t *testing.T) {
	for _, spec := range experiments.NUMASpecs {
		ncpu, ndom := spec.CPUs, spec.Domains
		n := 2 * ncpu
		for _, name := range experiments.Policies {
			name := name
			t.Run(fmt.Sprintf("%s/%s", spec.Label, name), func(t *testing.T) {
				env := sched.NewEnv(ncpu, true, func() int { return n })
				env.Topo = sched.UniformTopology(ncpu, ndom)
				s := experiments.Factory(name)(env)
				tasks := make([]*task.Task, n)
				for i := range tasks {
					tasks[i] = mkTask(env, i+1, 1+(i*5)%40, 4+i%12)
					s.AddToRunqueue(tasks[i])
				}
				h := newHarness(s, ncpu)
				picked := map[*task.Task]int{}
				for left := n; left > 0; {
					progressed := false
					for cpu := 0; cpu < ncpu && left > 0; cpu++ {
						next := h.schedule(cpu)
						if next == nil {
							continue
						}
						progressed = true
						picked[next]++
						h.block(cpu)
						h.schedule(cpu) // dequeue the blocked task
						left--
					}
					if !progressed {
						t.Fatalf("no CPU could schedule with %d tasks outstanding", left)
					}
				}
				for i, tk := range tasks {
					if picked[tk] != 1 {
						t.Fatalf("task %d scheduled %d times, want exactly once", i, picked[tk])
					}
				}
			})
		}
	}
}

// TestNUMAMachineSpecAllPolicies runs a short VolanoMark on each NUMA
// machine spec (32P/4-domain and 64P/8-domain) for every registered
// policy: messages must flow and no room may starve on the domained
// machine, the same bar the flat smoke test sets. This is what keeps a
// future policy honest about topology.
func TestNUMAMachineSpecAllPolicies(t *testing.T) {
	const (
		rooms    = 2
		users    = 4
		messages = 2
	)
	want := uint64(rooms * users * users * messages)
	for _, spec := range experiments.NUMASpecs {
		for _, name := range experiments.Policies {
			spec, name := spec, name
			t.Run(fmt.Sprintf("%s/%s", spec.Label, name), func(t *testing.T) {
				t.Parallel()
				sc := experiments.Scale{Messages: messages, Seed: 5, HorizonSeconds: 600, TicklessOff: ticklessOff()}
				m := experiments.NewMachineOn(nil, spec, name, sc)
				res := workload.VolanoWith(volano.Config{
					Rooms: rooms, UsersPerRoom: users, MessagesPerUser: messages,
				})(m, workload.Params{}).Run()
				if res.Ops != want {
					t.Fatalf("deliveries = %d, want %d (a room starved on the NUMA spec)",
						res.Ops, want)
				}
				if res.Throughput <= 0 {
					t.Fatalf("throughput = %v, want > 0", res.Throughput)
				}
				if n := m.Stats().IdleTickRescues; n != 0 {
					t.Fatalf("idle_tick_rescues = %d, want 0: a queued task sat on an idle CPU with no kick in flight", n)
				}
			})
		}
	}
}

// TestNUMAMachineSpecRegistryWorkloads runs the two new registry
// workloads (db, wakestorm) on the 64P/8-domain spec under every policy:
// the deepest hierarchy must not lose a transaction or a wake-up.
func TestNUMAMachineSpecRegistryWorkloads(t *testing.T) {
	spec := experiments.SpecByLabel("64P-NUMA")
	sc := experiments.Scale{Messages: 2, Seed: 5, HorizonSeconds: 600, Quick: true, TicklessOff: ticklessOff()}
	for _, load := range []string{workload.DB, workload.WakeStorm} {
		for _, name := range experiments.Policies {
			load, name := load, name
			t.Run(fmt.Sprintf("%s/%s", load, name), func(t *testing.T) {
				t.Parallel()
				r := experiments.RunCell(nil, experiments.Load(load).On(spec, name), sc)
				if !r.Result.Complete {
					t.Fatalf("%s did not complete on the 64P/8-domain machine", r.Key())
				}
				if r.Result.Ops == 0 {
					t.Fatalf("%s performed no operations", r.Key())
				}
				if n := r.Stats.IdleTickRescues; n != 0 {
					t.Fatalf("%s: idle_tick_rescues = %d, want 0: a queued task sat on an idle CPU with no kick in flight", r.Key(), n)
				}
			})
		}
	}
}
