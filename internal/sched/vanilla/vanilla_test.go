package vanilla

import (
	"testing"
	"testing/quick"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

func newEnv(ncpu int, ntasks int) *sched.Env {
	return sched.NewEnv(ncpu, ncpu > 1, func() int { return ntasks })
}

func mkTask(env *sched.Env, id, prio, counter int) *task.Task {
	t := task.New(id, "t", nil, env.Epoch)
	t.Priority = prio
	t.SetCounter(env.Epoch, counter)
	return t
}

// idlePrev builds the placeholder the kernel passes when waking from idle.
func idlePrev() *task.Task {
	t := task.New(-1, "idle", nil, nil)
	t.IsIdle = true
	return t
}

func TestPicksHighestGoodness(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	lo := mkTask(env, 1, 20, 5)
	hi := mkTask(env, 2, 20, 30)
	mid := mkTask(env, 3, 20, 15)
	s.AddToRunqueue(lo)
	s.AddToRunqueue(hi)
	s.AddToRunqueue(mid)

	res := s.Schedule(0, idlePrev())
	if res.Next != hi {
		t.Fatalf("picked %v, want %v", res.Next, hi)
	}
	if res.Examined != 3 {
		t.Fatalf("examined %d, want 3 (full scan)", res.Examined)
	}
}

func TestEmptyQueueSchedulesIdleWithoutRecalc(t *testing.T) {
	// Paper footnote 1: an empty run queue schedules the idle task
	// rather than trigger the recalculation.
	env := newEnv(1, 0)
	s := New(env)
	res := s.Schedule(0, idlePrev())
	if res.Next != nil {
		t.Fatalf("picked %v from empty queue", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("empty queue must not recalculate")
	}
	if env.Epoch.N() != 0 {
		t.Fatal("epoch must not advance")
	}
}

func TestFrontOfQueueWinsTies(t *testing.T) {
	// "When the scheduler finds two equivalent tasks, the one closer to
	// the front of the list is chosen." PushFront order means the last
	// added is at the front.
	env := newEnv(1, 2)
	s := New(env)
	first := mkTask(env, 1, 20, 10)
	second := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(first)  // queue: [first]
	s.AddToRunqueue(second) // queue: [second, first]
	res := s.Schedule(0, idlePrev())
	if res.Next != second {
		t.Fatalf("tie went to %v, want front task %v", res.Next, second)
	}
}

// TestMoveLastLosesTie: move_last_runqueue is what Schedule does to a
// SCHED_RR prev whose quantum expired. The task starts at the front of the
// queue, where it would win every tie; after the expiry it is behind its
// rt_priority equal, and still ahead of the lower level by goodness.
func TestMoveLastLosesTie(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	lower := task.NewRT(3, "lower", task.RR, 9, env.Epoch)
	b := task.NewRT(2, "b", task.RR, 10, env.Epoch)
	a := task.NewRT(1, "a", task.RR, 10, env.Epoch)
	s.AddToRunqueue(lower)
	s.AddToRunqueue(b)
	s.AddToRunqueue(a) // queue: [a, b, lower]
	if res := s.Schedule(0, idlePrev()); res.Next != a {
		t.Fatalf("picked %v, want the front task %v", res.Next, a)
	}
	a.HasCPU, a.Processor = true, 0
	s.NoteRunning(a, true)
	a.SetCounter(env.Epoch, 0)
	if res := s.Schedule(0, a); res.Next != b {
		t.Fatalf("picked %v after a's quantum expired, want its equal %v", res.Next, b)
	}
	if a.QStamp < b.QStamp {
		t.Fatalf("%v is ahead of %v in the queue: the expired task moves behind its equals", a, b)
	}
	s.NoteRunning(a, false)
	a.HasCPU = false
	s.DelFromRunqueue(b)
	if res := s.Schedule(0, idlePrev()); res.Next != a {
		t.Fatalf("picked %v, want %v: an expiry is not a yield, a still beats rt_priority 9", res.Next, a)
	}
}

// TestMoveFirstWinsTie: move_first_runqueue is the re-file the kernel does
// around a class or priority change (del_from_runqueue, change,
// add_to_runqueue) — the task lands at the front and wins the tie.
func TestMoveFirstWinsTie(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(b)
	s.AddToRunqueue(a) // front: a
	s.DelFromRunqueue(b)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	if res.Next != b {
		t.Fatalf("picked %v, want the re-filed %v", res.Next, b)
	}
}

func TestSkipsTasksRunningElsewhere(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	busy := mkTask(env, 1, 20, 40)
	free := mkTask(env, 2, 20, 5)
	s.AddToRunqueue(busy)
	s.AddToRunqueue(free)
	busy.HasCPU = true
	busy.Processor = 1
	s.NoteRunning(busy, true)

	res := s.Schedule(0, idlePrev())
	if res.Next != free {
		t.Fatalf("picked %v, want %v (busy is on CPU 1)", res.Next, free)
	}
}

func TestAllBusySchedulesIdle(t *testing.T) {
	env := newEnv(2, 1)
	s := New(env)
	busy := mkTask(env, 1, 20, 40)
	s.AddToRunqueue(busy)
	busy.HasCPU = true
	busy.Processor = 1
	s.NoteRunning(busy, true)

	res := s.Schedule(0, idlePrev())
	if res.Next != nil {
		t.Fatalf("picked %v, want idle", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("no recalc when only running-elsewhere tasks exist")
	}
}

func TestExhaustedQueueTriggersRecalc(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 0)
	b := mkTask(env, 2, 10, 0)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)

	res := s.Schedule(0, idlePrev())
	if res.Recalcs != 1 {
		t.Fatalf("recalcs = %d, want 1", res.Recalcs)
	}
	// After recalculation counters become priority, so a (priority 20)
	// must win over b (priority 10).
	if res.Next != a {
		t.Fatalf("picked %v, want %v", res.Next, a)
	}
	if a.Counter(env.Epoch) != 20 || b.Counter(env.Epoch) != 10 {
		t.Fatal("counters not recalculated to priority")
	}
}

func TestRecalcChargesPerTaskCost(t *testing.T) {
	const n = 1000
	env := newEnv(1, n)
	s := New(env)
	a := mkTask(env, 1, 20, 0)
	s.AddToRunqueue(a)
	res := s.Schedule(0, a) // a yields nothing; it is prev and exhausted
	if res.Recalcs < 1 {
		t.Fatal("expected a recalculation")
	}
	if res.Cycles < uint64(n)*env.Cost.RecalcPerTask {
		t.Fatalf("cycles = %d, want at least %d for the recalc loop",
			res.Cycles, uint64(n)*env.Cost.RecalcPerTask)
	}
}

func TestYieldingSoleTaskRecalcsThenReruns(t *testing.T) {
	// The stock scheduler's documented misbehavior (paper §5.2): a
	// yielding task with no competition forces a full recalculation,
	// after which it is chosen again.
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	a.HasCPU = true
	a.Processor = 0
	s.NoteRunning(a, true)
	a.Yielded = true

	res := s.Schedule(0, a)
	if res.Recalcs != 1 {
		t.Fatalf("recalcs = %d, want 1 (yield storm)", res.Recalcs)
	}
	if res.Next != a {
		t.Fatalf("picked %v, want the yielding task back", res.Next)
	}
	if a.Yielded {
		t.Fatal("yield bit must be consumed")
	}
}

func TestYieldLosesToCompetitor(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	y := mkTask(env, 1, 20, 40)
	other := mkTask(env, 2, 20, 1)
	s.AddToRunqueue(y)
	s.AddToRunqueue(other)
	y.HasCPU = true
	y.Processor = 0
	s.NoteRunning(y, true)
	y.Yielded = true

	res := s.Schedule(0, y)
	if res.Next != other {
		t.Fatalf("picked %v, want %v (yielded task offers goodness 0)", res.Next, other)
	}
	if res.Recalcs != 0 {
		t.Fatal("no recalc needed when a competitor exists")
	}
}

func TestBlockedPrevLeavesQueue(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 5)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	a.HasCPU = true
	a.Processor = 0
	s.NoteRunning(a, true)
	a.State = task.Interruptible // blocked

	res := s.Schedule(0, a)
	if res.Next != b {
		t.Fatalf("picked %v, want %v", res.Next, b)
	}
	if a.OnRunqueue() {
		t.Fatal("blocked prev must leave the run queue")
	}
	// b is chosen but stays on the queue and is counted runnable until
	// the kernel flips its HasCPU.
	if s.Runnable() != 1 {
		t.Fatalf("runnable = %d, want 1", s.Runnable())
	}
}

func TestRRExpiryResetsAndMovesLast(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	rr := task.NewRT(1, "rr", task.RR, 10, env.Epoch)
	rr.SetCounter(env.Epoch, 0)
	fifo := task.NewRT(2, "fifo", task.FIFO, 10, env.Epoch)
	s.AddToRunqueue(rr)
	s.AddToRunqueue(fifo)
	rr.HasCPU = true
	rr.Processor = 0
	s.NoteRunning(rr, true)

	res := s.Schedule(0, rr)
	if rr.Counter(env.Epoch) != rr.Priority {
		t.Fatalf("RR counter = %d, want reset to priority %d", rr.Counter(env.Epoch), rr.Priority)
	}
	// Equal rt_priority: the tie must now go to fifo because rr moved to
	// the back.
	if res.Next != fifo {
		t.Fatalf("picked %v, want %v", res.Next, fifo)
	}
}

func TestRTBeatsExhaustedAndRegular(t *testing.T) {
	// "if the current scheduler always selects a real-time task over a
	// SCHED_OTHER task ... the ELSC scheduler should do the same" — the
	// baseline behavior under test here.
	env := newEnv(1, 3)
	s := New(env)
	reg := mkTask(env, 1, 40, 80)
	rt := task.NewRT(2, "rt", task.FIFO, 0, env.Epoch)
	s.AddToRunqueue(reg)
	s.AddToRunqueue(rt)
	res := s.Schedule(0, idlePrev())
	if res.Next != rt {
		t.Fatalf("picked %v, want RT task", res.Next)
	}
}

func TestAffinityBreaksTie(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	local := mkTask(env, 1, 20, 10)
	local.EverRan = true
	local.Processor = 0
	remote := mkTask(env, 2, 20, 10)
	remote.EverRan = true
	remote.Processor = 1
	// remote is at the front (added last) and would win a pure tie.
	s.AddToRunqueue(local)
	s.AddToRunqueue(remote)
	res := s.Schedule(0, idlePrev())
	if res.Next != local {
		t.Fatalf("picked %v, want CPU-affine %v", res.Next, local)
	}
}

func TestAddIsIdempotent(t *testing.T) {
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(a)
	if s.Runnable() != 1 {
		t.Fatalf("runnable = %d after double add, want 1", s.Runnable())
	}
	s.DelFromRunqueue(a)
	s.DelFromRunqueue(a)
	if s.Runnable() != 0 {
		t.Fatalf("runnable = %d after double del, want 0", s.Runnable())
	}
}

func TestExaminedCountsFullScan(t *testing.T) {
	// The defining O(n) behavior: examined grows with queue length.
	for _, n := range []int{1, 10, 100} {
		env := newEnv(1, n)
		s := New(env)
		for i := 0; i < n; i++ {
			s.AddToRunqueue(mkTask(env, i, 20, 1+i%39))
		}
		res := s.Schedule(0, idlePrev())
		if res.Examined != n {
			t.Fatalf("examined = %d, want %d", res.Examined, n)
		}
	}
}

func TestScheduleCostGrowsLinearly(t *testing.T) {
	costAt := func(n int) uint64 {
		env := newEnv(1, n)
		s := New(env)
		for i := 0; i < n; i++ {
			s.AddToRunqueue(mkTask(env, i, 20, 10))
		}
		return s.Schedule(0, idlePrev()).Cycles
	}
	c10, c100 := costAt(10), costAt(100)
	if c100 < c10*5 {
		t.Fatalf("cost at 100 tasks (%d) should dwarf cost at 10 (%d)", c100, c10)
	}
}

// TestMatchesBruteForceOracle cross-checks Schedule against a direct argmax
// over Goodness on random queue states.
func TestMatchesBruteForceOracle(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%20) + 1
		rng := sim.NewRNG(seed)
		env := newEnv(1, n)
		s := New(env)
		mms := []*task.MM{nil, {ID: 1}, {ID: 2}}
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tk := mkTask(env, i, 1+rng.Intn(40), 0)
			tk.SetCounter(env.Epoch, rng.Intn(2*tk.Priority+1))
			tk.MM = mms[rng.Intn(len(mms))]
			tk.EverRan = true
			tk.Processor = 0
			tasks[i] = tk
			s.AddToRunqueue(tk)
		}
		prevMM := mms[rng.Intn(len(mms))]
		prev := idlePrev()
		prev.MM = prevMM

		res := s.Schedule(0, prev)

		// Brute-force oracle: max goodness, front of queue wins ties.
		// Queue order is reverse insertion (PushFront).
		best := (*task.Task)(nil)
		bestW := -1000
		anyZero := false
		for i := n - 1; i >= 0; i-- {
			tk := tasks[i]
			w := sched.Goodness(env.Epoch, tk, 0, prevMM)
			if w == 0 {
				anyZero = true
			}
			if w > bestW {
				bestW = w
				best = tk
			}
		}
		if bestW == 0 && anyZero {
			// Oracle: recalc happens, counters become c/2+prio and
			// the scan repeats; just check the scheduler also
			// recalculated and picked the new argmax.
			if res.Recalcs == 0 {
				return false
			}
			best, bestW = nil, -1000
			for i := n - 1; i >= 0; i-- {
				tk := tasks[i]
				w := sched.Goodness(env.Epoch, tk, 0, prevMM)
				if w > bestW {
					bestW = w
					best = tk
				}
			}
		}
		return res.Next == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMixedQueueExactCharges pins one scan of a queue holding every kind
// of entry the loop distinguishes — running elsewhere, affinity-excluded,
// the yielded prev, real-time, exhausted, and ordinary tasks with and
// without bonuses — to its exact Next, Examined and Cycles. The expected
// cycles are the per-visit definition (a Touch for a skipped entry, an
// Evaluate for a scored one) summed by hand, so a faster loop cannot
// quietly charge differently.
func TestMixedQueueExactCharges(t *testing.T) {
	const cpu = 1
	env := newEnv(4, 7)
	s := New(env)
	mm := &task.MM{ID: 1}

	elsewhere := mkTask(env, 1, 20, 30)
	elsewhere.HasCPU, elsewhere.EverRan, elsewhere.Processor = true, true, 2
	pinned := mkTask(env, 2, 20, 30)
	pinned.CPUsAllowed = 1 << 0
	prev := mkTask(env, 3, 20, 1)
	prev.MM, prev.HasCPU, prev.EverRan, prev.Processor, prev.Yielded = mm, true, true, cpu, true
	rt := task.NewRT(4, "rt", task.FIFO, 10, env.Epoch)
	spent := mkTask(env, 5, 20, 0)
	bonused := mkTask(env, 6, 20, 10) // 30 + 1 (mm) + 15 (affinity) = 46
	bonused.MM, bonused.EverRan, bonused.Processor = mm, true, cpu
	plain := mkTask(env, 7, 20, 20) // 40: wins on static goodness alone
	for _, tk := range []*task.Task{elsewhere, pinned, prev, rt, spent, bonused, plain} {
		s.AddToRunqueue(tk)
	}

	const touch, evaluate = 70 + 250, 70 + 250 + 25 // DefaultCostModel on SMP
	res := s.Schedule(cpu, prev)
	// Skipped: elsewhere, pinned, yielded prev. Scored: rt, spent, bonused, plain.
	if want := uint64(600 + 3*touch + 4*evaluate); res.Next != rt || res.Examined != 7 || res.Cycles != want || res.Recalcs != 0 {
		t.Fatalf("first scan: next %v examined %d cycles %d recalcs %d, want %v 7 %d 0", res.Next, res.Examined, res.Cycles, res.Recalcs, rt, want)
	}
	if prev.Yielded {
		t.Fatal("yield bit must be consumed by the scan")
	}

	// Without the real-time task, and prev scored normally (21 + 1 + 15 =
	// 37): the bonuses must carry the 30-point task past the 40-point one.
	s.DelFromRunqueue(rt)
	res = s.Schedule(cpu, prev)
	if want := uint64(600 + 2*touch + 4*evaluate); res.Next != bonused || res.Examined != 6 || res.Cycles != want {
		t.Fatalf("second scan: next %v examined %d cycles %d, want %v 6 %d", res.Next, res.Examined, res.Cycles, bonused, want)
	}
}
