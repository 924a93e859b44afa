package o1

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/task"
	"elsc/internal/workload/volano"
)

// numLevels is an array's level count: the real-time levels, then one per
// SCHED_OTHER static priority.
const numLevels = rtLevels + task.MaxPriority

func newEnv(ncpu, ntasks int) *sched.Env {
	return sched.NewEnv(ncpu, ncpu > 1, func() int { return ntasks })
}

func mkTask(env *sched.Env, id, prio, counter int) *task.Task {
	t := task.New(id, "t", nil, env.Epoch)
	t.Priority = prio
	t.SetCounter(env.Epoch, counter)
	return t
}

func idlePrev() *task.Task {
	t := task.New(-1, "idle", nil, nil)
	t.IsIdle = true
	return t
}

// newNumaEnv builds an env whose CPUs are split into cache domains.
func newNumaEnv(ncpu, domains, ntasks int) *sched.Env {
	env := sched.NewEnv(ncpu, true, func() int { return ntasks })
	env.Topo = sched.UniformTopology(ncpu, domains)
	return env
}

// homedTask returns a runnable task whose last run was on cpu, so
// AddToRunqueue files it there.
func homedTask(env *sched.Env, id, cpu int) *task.Task {
	tk := mkTask(env, id, 20, 10)
	tk.EverRan = true
	tk.Processor = cpu
	return tk
}

func TestLevelOrdering(t *testing.T) {
	env := newEnv(1, 2)
	rtHi := task.NewRT(1, "rt99", task.FIFO, 99, env.Epoch)
	rtLo := task.NewRT(2, "rt0", task.FIFO, 0, env.Epoch)
	best := mkTask(env, 3, task.MaxPriority, 80)
	worst := mkTask(env, 4, task.MinPriority, 2)
	// With the bonus off every task files at its static level.
	levelOf := NewWithConfig(env, Config{InteractivityOff: true}).levelFor
	if !(levelOf(rtHi) < levelOf(rtLo) && levelOf(rtLo) < levelOf(best) && levelOf(best) < levelOf(worst)) {
		t.Fatalf("level order broken: rt99=%d rt0=%d prio40=%d prio1=%d",
			levelOf(rtHi), levelOf(rtLo), levelOf(best), levelOf(worst))
	}
	if levelOf(worst) != numLevels-1 {
		t.Fatalf("lowest task at level %d, want %d", levelOf(worst), numLevels-1)
	}
}

// TestBitmapFindFirstSet runs the shared level array at o1's 140 levels:
// the bitmap must follow list occupancy across the word boundaries.
func TestBitmapFindFirstSet(t *testing.T) {
	env := newEnv(1, 2)
	var rq runqueue
	a := &rq.arrays[0]
	a.Init(&env.Tasks, rq.lists[0][:])
	if a.Next(0) != -1 {
		t.Fatal("empty array must report no level")
	}
	hi, lo := mkTask(env, 1, 20, 10), mkTask(env, 2, 20, 10)
	a.Push(hi, 7, true)
	a.Push(lo, 130, true)
	if a.Next(0) != 7 {
		t.Fatalf("Next(0) = %d, want 7", a.Next(0))
	}
	if got := a.Next(8); got != 130 {
		t.Fatalf("Next(8) = %d, want 130", got)
	}
	if got := a.Next(131); got != -1 {
		t.Fatalf("Next(131) = %d, want -1", got)
	}
	a.Remove(hi, 7)
	if a.Next(0) != 130 {
		t.Fatalf("Next(0) after remove = %d, want 130", a.Next(0))
	}
}

func TestPickIsHighestPriorityHead(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	lo := mkTask(env, 1, 10, 10)
	hi := mkTask(env, 2, 30, 10)
	rt := task.NewRT(3, "rt", task.FIFO, 5, env.Epoch)
	s.AddToRunqueue(lo)
	s.AddToRunqueue(hi)
	s.AddToRunqueue(rt)
	res := s.Schedule(0, idlePrev())
	if res.Next != rt {
		t.Fatalf("picked %v, want real-time task", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("o1 must never enter the recalculation loop")
	}
	res = s.Schedule(0, rtDone(rt))
	if res.Next != hi {
		t.Fatalf("picked %v, want the higher static priority", res.Next)
	}
}

// rtDone marks a previously picked task no longer runnable so the next
// Schedule call treats it as blocked.
func rtDone(prev *task.Task) *task.Task {
	prev.State = task.Interruptible
	return prev
}

func TestExpiredArrayAndSwap(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)

	res := s.Schedule(0, idlePrev())
	first := res.Next
	if first == nil {
		t.Fatal("no task picked")
	}
	// Simulate the quantum running out, then a forced reschedule.
	first.SetCounter(env.Epoch, 0)
	res = s.Schedule(0, first)
	if res.Next == first {
		t.Fatal("expired task re-picked while a fresh task waits")
	}
	if s.rqs[0].expired().Len() != 1 {
		t.Fatalf("expired array holds %d, want the exhausted task", s.rqs[0].expired().Len())
	}
	if first.RawCounter() == 0 {
		t.Fatal("exhausted task must be recharged when filed into expired")
	}

	// Second task expires too: the active array drains and the swap must
	// bring the expired tasks back without a recalculation.
	second := res.Next
	second.SetCounter(env.Epoch, 0)
	res = s.Schedule(0, second)
	if res.Next != first {
		t.Fatalf("after swap picked %v, want %v", res.Next, first)
	}
	if res.Recalcs != 0 || env.Epoch.N() != 0 {
		t.Fatal("array swap must not bump the recalculation epoch")
	}
}

func TestYieldSendsTaskBehindActive(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	y := mkTask(env, 1, 30, 10) // higher priority, but yields
	other := mkTask(env, 2, 10, 10)
	s.AddToRunqueue(y)
	s.AddToRunqueue(other)

	res := s.Schedule(0, idlePrev())
	if res.Next != y {
		t.Fatalf("picked %v, want the high-priority task first", res.Next)
	}
	y.Yielded = true
	res = s.Schedule(0, y)
	if res.Next != other {
		t.Fatalf("picked %v after yield, want the other task", res.Next)
	}
	if y.Yielded {
		t.Fatal("schedule must consume the yield bit")
	}
}

func TestYieldLoneTaskReruns(t *testing.T) {
	env := newEnv(1, 1)
	s := New(env)
	y := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(y)
	res := s.Schedule(0, idlePrev())
	if res.Next != y {
		t.Fatal("lone task not picked")
	}
	y.Yielded = true
	res = s.Schedule(0, y)
	if res.Next != y {
		t.Fatalf("lone yielding task must be re-run, got %v", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("yield must not trigger recalculation in o1")
	}
}

func TestStealWhenLocalEmpty(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	a.EverRan = true
	a.Processor = 1
	b := mkTask(env, 2, 20, 10)
	b.EverRan = true
	b.Processor = 1
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	if s.bal.Len[0] != 0 || s.bal.Len[1] != 2 {
		t.Fatalf("queues = %d/%d, want 0/2", s.bal.Len[0], s.bal.Len[1])
	}
	res := s.Schedule(0, idlePrev())
	if res.Next == nil {
		t.Fatal("idle CPU must steal from the busy queue")
	}
}

func TestStealRespectsAffinity(t *testing.T) {
	env := newEnv(2, 1)
	s := New(env)
	pinned := mkTask(env, 1, 20, 10)
	pinned.CPUsAllowed = 1 << 1
	s.AddToRunqueue(pinned)
	if s.bal.Len[1] != 1 {
		t.Fatal("pinned task must be homed on CPU 1")
	}
	res := s.Schedule(0, idlePrev())
	if res.Next != nil {
		t.Fatalf("CPU 0 stole %v despite the affinity mask", res.Next)
	}
	res = s.Schedule(1, idlePrev())
	if res.Next != pinned {
		t.Fatal("CPU 1 must run its pinned task")
	}
}

func TestStealFallsThroughPinnedBusiestQueue(t *testing.T) {
	env := newEnv(3, 4)
	s := New(env)
	// CPU 1 is the busiest queue but everything on it is pinned there;
	// CPU 2 holds the only stealable task.
	for i := 0; i < 3; i++ {
		tk := mkTask(env, i+1, 20, 10)
		tk.CPUsAllowed = 1 << 1
		s.AddToRunqueue(tk)
	}
	free := mkTask(env, 9, 20, 10)
	free.EverRan = true
	free.Processor = 2
	s.AddToRunqueue(free)
	res := s.Schedule(0, idlePrev())
	if res.Next != free {
		t.Fatalf("picked %v, want the stealable task from the shorter queue", res.Next)
	}
}

// runToPull drives cpu through one balancing period. The CPU keeps
// re-running one local task of its own, so the idle-steal path never fires
// and only the periodic pull can move work onto its queue; afterwards that
// task is running (dequeued), so bal.Len[cpu] counts exactly what the
// pull brought.
func runToPull(t *testing.T, env *sched.Env, s *Sched, cpu int) {
	t.Helper()
	runner := homedTask(env, 1000+cpu, cpu)
	s.AddToRunqueue(runner)
	prev := idlePrev()
	for i := 0; i < sched.BalanceEvery; i++ {
		res := s.Schedule(cpu, prev)
		if res.Next != runner {
			t.Fatalf("schedule %d picked %v, want the CPU's own runner", i, res.Next)
		}
		if i < sched.BalanceEvery-1 && s.bal.Len[cpu] != 0 {
			t.Fatalf("work arrived after %d schedules, before the pull was due", i+1)
		}
		prev = runner
	}
}

func TestPullBalancePrefersExpiredTasks(t *testing.T) {
	env := newEnv(2, 4)
	s := New(env)
	// The victim's active array: its next dispatches.
	hot := [2]*task.Task{homedTask(env, 1, 1), homedTask(env, 2, 1)}
	s.AddToRunqueue(hot[0])
	s.AddToRunqueue(hot[1])
	cold := homedTask(env, 3, 1)
	cold.SetCounter(env.Epoch, 0)
	s.AddToRunqueue(cold) // exhausted: victim's expired array
	runToPull(t, env, s, 0)
	if s.bal.Len[0] != 1 || cold.QIndex != 0 {
		t.Fatalf("pull took the wrong task: queue0=%d hot.QIndex=%d,%d cold.QIndex=%d (want the expired, cache-cold task)",
			s.bal.Len[0], hot[0].QIndex, hot[1].QIndex, cold.QIndex)
	}
}

func TestPullBalanceMovesWork(t *testing.T) {
	env := newEnv(2, 9)
	s := New(env)
	// CPU 0 always has local work, so the idle-steal path never fires
	// and only the periodic balancer can move tasks across.
	runner := mkTask(env, 100, 20, 10)
	runner.EverRan = true
	runner.Processor = 0
	s.AddToRunqueue(runner)
	for i := 0; i < 8; i++ {
		tk := mkTask(env, i+1, 20, 10)
		tk.EverRan = true
		tk.Processor = 1
		s.AddToRunqueue(tk)
	}
	prev := idlePrev()
	for i := 0; i < sched.BalanceEvery+2; i++ {
		res := s.Schedule(0, prev)
		if res.Next == nil {
			t.Fatal("CPU 0 went idle with local work queued")
		}
		prev = res.Next
	}
	if s.bal.Len[1] == 8 {
		t.Fatal("pull balancing never moved work off the overloaded queue")
	}
}

func TestNoTaskLostOrDuplicated(t *testing.T) {
	env := newEnv(2, 16)
	s := New(env)
	tasks := make([]*task.Task, 16)
	for i := range tasks {
		tasks[i] = mkTask(env, i+1, 1+i*2, 5)
		s.AddToRunqueue(tasks[i])
		s.AddToRunqueue(tasks[i]) // double add must be a no-op
	}
	if s.Runnable() != 16 {
		t.Fatalf("Runnable = %d, want 16", s.Runnable())
	}
	seen := map[*task.Task]int{}
	for cpu := 0; s.Runnable() > 0; cpu = 1 - cpu {
		res := s.Schedule(cpu, idlePrev())
		if res.Next == nil {
			t.Fatal("queue non-empty but nothing picked")
		}
		seen[res.Next]++
	}
	for _, tk := range tasks {
		if seen[tk] != 1 {
			t.Fatalf("task %v scheduled %d times, want exactly once", tk, seen[tk])
		}
	}
}

func TestExpiredNotStarvedByUnpickableStraggler(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	// A task whose mask allows no present CPU lands on CPU 0 via the
	// Home fallback; it can never be picked, but it must not pin the
	// arrays and starve expired tasks behind it.
	ghost := mkTask(env, 1, 20, 10)
	ghost.CPUsAllowed = 1 << 5
	s.AddToRunqueue(ghost)
	if s.bal.Len[0] != 1 {
		t.Fatal("setup: inconsistent-mask task must fall back to CPU 0")
	}
	starved := mkTask(env, 2, 20, 10)
	starved.CPUsAllowed = 1 << 0
	starved.SetCounter(env.Epoch, 0) // exhausted: filed into expired
	s.AddToRunqueue(starved)
	res := s.Schedule(0, idlePrev())
	if res.Next != starved {
		t.Fatalf("picked %v, want the expired task despite the unpickable straggler", res.Next)
	}
}

func TestDelFromExpired(t *testing.T) {
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	a.SetCounter(env.Epoch, 0)
	s.AddToRunqueue(a)
	if s.rqs[0].expired().Len() != 1 {
		t.Fatal("exhausted task must land in expired")
	}
	s.DelFromRunqueue(a)
	if a.OnRunqueue() || s.Runnable() != 0 {
		t.Fatal("delete from expired array failed")
	}
}

// TestMoveFirstLastWithinLevel: a task's place within its level is decided
// where it is filed. The kernel's re-file around a class or priority change
// (Del, change, Add) lands at the head and wins the FIFO tie; Schedule
// files a round-robin prev whose quantum expired at the tail, behind every
// equal, and a preempted one with quantum left back at the head.
func TestMoveFirstLastWithinLevel(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	rrs := make([]*task.Task, 3)
	for i := range rrs {
		rrs[i] = task.NewRT(i+1, "rr", task.RR, 50, env.Epoch)
		s.AddToRunqueue(rrs[i])
	} // head first: rr2, rr1, rr0
	s.DelFromRunqueue(rrs[0])
	s.AddToRunqueue(rrs[0]) // rr0, rr2, rr1
	var got []*task.Task
	prev := idlePrev()
	for i := 0; i < 4; i++ {
		if i == 2 {
			// Preempted with quantum left: keeps the head, runs again.
			prev.SetCounter(env.Epoch, 3)
		}
		next := s.Schedule(0, prev).Next
		prev.HasCPU = false
		next.HasCPU, next.Processor = true, 0
		got = append(got, next)
		next.SetCounter(env.Epoch, 0) // ...and its quantum expires
		prev = next
	}
	want := []*task.Task{rrs[0], rrs[2], rrs[2], rrs[1]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick order %v, want %v", got, want)
		}
	}
}

func TestScheduleCostIndependentOfQueueLength(t *testing.T) {
	cost := func(n int) uint64 {
		env := newEnv(1, n)
		s := New(env)
		for i := 0; i < n; i++ {
			s.AddToRunqueue(mkTask(env, i+1, 20, 10))
		}
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			panic("no pick")
		}
		return res.Cycles
	}
	small, large := cost(4), cost(1024)
	if large != small {
		t.Fatalf("schedule cost grew with queue length: %d cycles at 4 tasks, %d at 1024", small, large)
	}
}

func TestExaminedStaysConstant(t *testing.T) {
	env := newEnv(1, 256)
	s := New(env)
	for i := 0; i < 256; i++ {
		s.AddToRunqueue(mkTask(env, i+1, 1+i%40, 5))
	}
	res := s.Schedule(0, idlePrev())
	if res.Examined != 1 {
		t.Fatalf("examined %d tasks, want 1 (the O(1) property)", res.Examined)
	}
}

func TestFullMachineVolano(t *testing.T) {
	m := kernel.NewMachine(kernel.Config{
		CPUs: 4, SMP: true, Seed: 9,
		NewScheduler: func(env *sched.Env) sched.Scheduler { return New(env) },
		MaxCycles:    600 * kernel.DefaultHz,
	})
	b := volano.Build(m, volano.Config{Rooms: 2, UsersPerRoom: 4, MessagesPerUser: 3})
	m.Run(b.Done)
	want := uint64(2 * 4 * 4 * 3)
	if b.Deliveries() != want {
		t.Fatalf("deliveries = %d, want %d", b.Deliveries(), want)
	}
	st := m.Stats()
	if st.Recalcs != 0 {
		t.Fatalf("o1 recorded %d recalculations, want 0", st.Recalcs)
	}
	if st.SchedCalls == 0 {
		t.Fatal("no schedule() calls recorded")
	}
}

func TestStarvationGuardForcesSwap(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	starved := mkTask(env, 1, 20, 10)
	starved.SetCounter(env.Epoch, 0) // exhausted: filed into expired
	hog := mkTask(env, 2, 30, 10)
	s.AddToRunqueue(starved)
	s.AddToRunqueue(hog)

	res := s.Schedule(0, idlePrev())
	if res.Next != hog {
		t.Fatalf("first pick %v, want the active hog", res.Next)
	}
	// The hog never exhausts its quantum: each Schedule re-files it into
	// the active array, which would starve the expired task forever.
	for i := 0; i < starvationLimit+2; i++ {
		res = s.Schedule(0, res.Next)
		if res.Next == starved {
			if i < starvationLimit-2 {
				t.Fatalf("guard fired after only %d schedules (limit %d)", i+1, starvationLimit)
			}
			return
		}
	}
	t.Fatalf("expired task never ran within %d schedules (limit %d)", starvationLimit+2, starvationLimit)
}

func TestStealPrefersLocalDomainVictim(t *testing.T) {
	// Two domains: CPUs {0,1} and {2,3}. CPU 1 holds one task; CPU 2 is
	// the busiest queue with three. A topology-blind thief on CPU 0
	// would raid CPU 2; a hierarchical one must take the in-domain task.
	env := newNumaEnv(4, 2, 4)
	s := New(env)
	local := homedTask(env, 1, 1)
	s.AddToRunqueue(local)
	for i := 0; i < 3; i++ {
		s.AddToRunqueue(homedTask(env, 10+i, 2))
	}
	res := s.Schedule(0, idlePrev())
	if res.Next != local {
		t.Fatalf("stole %v, want the in-domain task", res.Next)
	}
	intra, cross := s.DomainSteals()
	if intra != 1 || cross != 0 {
		t.Fatalf("steal counters = %d intra / %d cross, want 1/0", intra, cross)
	}
}

func TestCrossDomainStealRequiresImbalance(t *testing.T) {
	// The only queued task sits alone in a foreign domain: dragging it
	// across the interconnect for an imbalance of one is a loss, so the
	// idle CPU must stay idle and let the task's home CPU run it.
	env := newNumaEnv(4, 2, 2)
	s := New(env)
	lone := homedTask(env, 1, 2)
	s.AddToRunqueue(lone)
	if res := s.Schedule(0, idlePrev()); res.Next != nil {
		t.Fatalf("stole %v across domains for an imbalance of one", res.Next)
	}
	// A second task on the same foreign queue is a real imbalance.
	s.AddToRunqueue(homedTask(env, 2, 2))
	res := s.Schedule(0, idlePrev())
	if res.Next == nil {
		t.Fatal("idle CPU refused a two-task cross-domain steal")
	}
	intra, cross := s.DomainSteals()
	if intra != 0 || cross != 1 {
		t.Fatalf("steal counters = %d intra / %d cross, want 0/1", intra, cross)
	}
}

func TestTopologyBlindStealsAnywhere(t *testing.T) {
	// The ablation baseline: with TopologyBlind set the same lone
	// foreign task is fair game, as in the pre-domain scheduler.
	env := newNumaEnv(4, 2, 1)
	s := NewWithConfig(env, Config{TopologyBlind: true})
	lone := homedTask(env, 1, 2)
	s.AddToRunqueue(lone)
	res := s.Schedule(0, idlePrev())
	if res.Next != lone {
		t.Fatalf("blind scheduler picked %v, want the foreign task", res.Next)
	}
}

func TestCrossDomainPullBatches(t *testing.T) {
	// No in-domain imbalance, a large foreign one: the periodic balancer
	// must move a batch in one pull, amortizing the interconnect refill.
	env := newNumaEnv(4, 2, 10)
	s := New(env)
	for i := 0; i < 9; i++ {
		s.AddToRunqueue(homedTask(env, i+1, 2))
	}
	runToPull(t, env, s, 0) // gap 9-1: half of it, capped at the balancer's batch of 4
	if got := s.bal.Len[0]; got != 4 {
		t.Fatalf("cross-domain pull moved %d tasks, want a batch of 4", got)
	}
	intra, cross := s.DomainSteals()
	if intra != 0 || cross != 4 {
		t.Fatalf("steal counters = %d intra / %d cross, want 0/4", intra, cross)
	}
}

func TestCrossDomainPullNeedsLargerGap(t *testing.T) {
	// An imbalance that would trigger an intra-domain pull (2) must NOT
	// trigger a cross-domain one: the threshold doubles across domains.
	// (The puller's own runner is queued when the pull looks, so a victim
	// of three is a gap of two.)
	env := newNumaEnv(4, 2, 4)
	s := New(env)
	for i := 0; i < 3; i++ {
		s.AddToRunqueue(homedTask(env, i+1, 2))
	}
	runToPull(t, env, s, 0)
	if got := s.bal.Len[0]; got != 0 {
		t.Fatalf("cross-domain pull fired at imbalance 2, moved %d tasks", got)
	}
	// Same gap inside the domain does move work.
	env2 := newNumaEnv(4, 2, 4)
	s2 := New(env2)
	for i := 0; i < 3; i++ {
		s2.AddToRunqueue(homedTask(env2, i+1, 1))
	}
	runToPull(t, env2, s2, 0)
	if got := s2.bal.Len[0]; got != 1 {
		t.Fatalf("intra-domain pull at imbalance 2 moved %d tasks, want 1", got)
	}
}

func TestStarvationGuardNeverDemotesRealTime(t *testing.T) {
	// A queued real-time task must veto the forced swap: demoting it
	// into the expired array would let SCHED_OTHER run ahead of it.
	env := newEnv(1, 3)
	s := New(env)
	starved := mkTask(env, 1, 20, 10)
	starved.SetCounter(env.Epoch, 0)
	s.AddToRunqueue(starved)
	rtA := task.NewRT(2, "rtA", task.RR, 50, env.Epoch)
	rtB := task.NewRT(3, "rtB", task.RR, 50, env.Epoch)
	s.AddToRunqueue(rtA)
	s.AddToRunqueue(rtB)

	res := s.Schedule(0, idlePrev())
	for i := 0; i < 4*starvationLimit; i++ {
		if res.Next == starved {
			t.Fatalf("schedule %d demoted queued RT work behind a SCHED_OTHER task", i)
		}
		res.Next.Yielded = true // rotate the RT pair forever
		res = s.Schedule(0, res.Next)
	}
	// Once the RT tasks are gone the guard may fire normally.
	rtA.State = task.Interruptible
	rtB.State = task.Interruptible
	s.DelFromRunqueue(rtA)
	s.DelFromRunqueue(rtB)
	res = s.Schedule(0, res.Next)
	if res.Next != starved {
		t.Fatalf("picked %v after RT load left, want the expired task", res.Next)
	}
}

func TestPerCPUStealCountersAttributeToThief(t *testing.T) {
	// Two domains: CPU 0 steals in-domain from CPU 1, then cross-domain
	// from CPU 2 (two tasks queued there makes the cross steal legal).
	// Both moves must land on CPU 0's counters, split by domain, and the
	// machine-wide DomainSteals must equal the per-CPU sum.
	env := newNumaEnv(4, 2, 4)
	s := New(env)
	s.AddToRunqueue(homedTask(env, 1, 1))
	res := s.Schedule(0, idlePrev())
	if res.Next == nil {
		t.Fatal("in-domain steal failed")
	}
	res.Next.State = task.Interruptible // retire the stolen task
	s.AddToRunqueue(homedTask(env, 2, 2))
	s.AddToRunqueue(homedTask(env, 3, 2))
	if res := s.Schedule(0, res.Next); res.Next == nil {
		t.Fatal("cross-domain steal failed")
	}
	per := s.PerCPUSteals()
	if per[0].Intra != 1 || per[0].Cross != 1 {
		t.Fatalf("CPU 0 counters = %+v, want 1 intra / 1 cross", per[0])
	}
	for cpu := 1; cpu < 4; cpu++ {
		if per[cpu] != (sched.CPUSteals{}) {
			t.Fatalf("CPU %d counters = %+v, want zero (it stole nothing)", cpu, per[cpu])
		}
	}
	intra, cross := s.DomainSteals()
	if intra != 1 || cross != 1 {
		t.Fatalf("totals = %d/%d, want the per-CPU sum 1/1", intra, cross)
	}
}

func TestPerCPUStealsReturnsCopy(t *testing.T) {
	env := newNumaEnv(2, 1, 1)
	s := New(env)
	s.AddToRunqueue(homedTask(env, 1, 1))
	if res := s.Schedule(0, idlePrev()); res.Next == nil {
		t.Fatal("steal failed")
	}
	per := s.PerCPUSteals()
	per[0].Intra = 99
	if got := s.PerCPUSteals()[0].Intra; got != 1 {
		t.Fatalf("mutating the returned slice leaked into the scheduler: %d", got)
	}
}
