package elsc

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

func idlePrev() *task.Task {
	t := task.New(-1, "idle", nil, nil)
	t.IsIdle = true
	return t
}

// dispatch marks t as the kernel would after Schedule returned it.
func dispatch(t *task.Task, cpu int) {
	t.HasCPU = true
	t.Processor = cpu
	t.EverRan = true
}

func TestIndexForDefaultGeometry(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	// SCHED_OTHER: (counter+priority)/4.
	reg := mkTask(env, 1, 20, 13)
	if idx := s.indexFor(reg, 13); idx != (13+20)/4 {
		t.Fatalf("index = %d, want %d", idx, (13+20)/4)
	}
	// Clamped to the SCHED_OTHER region.
	big := mkTask(env, 2, 40, 80)
	if idx := s.indexFor(big, 80); idx != 19 {
		t.Fatalf("index = %d, want clamp to 19", idx)
	}
	// Real-time: one of the ten highest lists, rt_priority/10.
	rt := task.NewRT(3, "rt", task.FIFO, 57, env.Epoch)
	if idx := s.indexFor(rt, 0); idx != 20+5 {
		t.Fatalf("rt index = %d, want 25", idx)
	}
	rt99 := task.NewRT(4, "rt", task.RR, 99, env.Epoch)
	if idx := s.indexFor(rt99, 0); idx != 29 {
		t.Fatalf("rt99 index = %d, want 29", idx)
	}
}

func TestAddSetsTop(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	if s.top != -1 || s.nextTop != -1 {
		t.Fatal("fresh table should have no top/next_top")
	}
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	if s.top != (10+20)/4 {
		t.Fatalf("top = %d, want %d", s.top, (10+20)/4)
	}
	if s.nextTop != -1 {
		t.Fatal("next_top should be unset for selectable tasks")
	}
}

func TestZeroCounterParksAtPredictedIndex(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	a := mkTask(env, 1, 20, 0)
	s.AddToRunqueue(a)
	// Predicted counter = 0/2 + 20 = 20, so index (20+20)/4 = 10.
	if s.top != -1 {
		t.Fatal("exhausted task must not set top")
	}
	if s.nextTop != 10 {
		t.Fatalf("next_top = %d, want 10", s.nextTop)
	}
	if s.lists[10].Len() != 1 {
		t.Fatal("task not in predicted list")
	}
	s.checkInvariants()
}

func TestParkedTasksSitBehindSelectable(t *testing.T) {
	// A zero-counter task and a selectable task that land on the same
	// list: the parked one must be at the back, out of the way.
	env := newEnv(1, 0)
	s := New(env)
	parked := mkTask(env, 1, 20, 0) // predicted 20 -> list 10
	s.AddToRunqueue(parked)
	live := mkTask(env, 2, 20, 21) // (21+20)/4 = 10
	s.AddToRunqueue(live)
	if s.lists[10].Len() != 2 {
		t.Fatalf("expected both tasks on list 10")
	}
	s.checkInvariants() // would panic if parked sat in front
	res := s.Schedule(0, idlePrev())
	if res.Next != live {
		t.Fatalf("picked %v, want selectable %v", res.Next, live)
	}
}

func TestPredictedIndexMatchesPostRecalcIndex(t *testing.T) {
	// The core ELSC trick: after the recalculation, a parked task is
	// already in the right list.
	f := func(prio8 uint8) bool {
		prio := int(prio8%task.MaxPriority) + 1
		env := newEnv(1, 1)
		s := New(env)
		tk := mkTask(env, 1, prio, 0)
		s.AddToRunqueue(tk)
		parkedAt := tk.QIndex
		env.Epoch.Bump() // the recalculation
		// Where would AddToRunqueue put it now that its counter has
		// been recalculated?
		c := tk.Counter(env.Epoch)
		return parkedAt == s.indexFor(tk, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePicksFromTopList(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	lo := mkTask(env, 1, 10, 5)   // list (5+10)/4 = 3
	hi := mkTask(env, 2, 20, 30)  // list (30+20)/4 = 12
	mid := mkTask(env, 3, 20, 10) // list (10+20)/4 = 7
	s.AddToRunqueue(lo)
	s.AddToRunqueue(hi)
	s.AddToRunqueue(mid)
	res := s.Schedule(0, idlePrev())
	if res.Next != hi {
		t.Fatalf("picked %v, want %v from top list", res.Next, hi)
	}
	// Only the top list is searched: one task examined, not three.
	if res.Examined != 1 {
		t.Fatalf("examined = %d, want 1", res.Examined)
	}
}

func TestChosenTaskLeavesListButLooksQueued(t *testing.T) {
	// Footnote 3: the running task is pulled out of its list manually
	// but the rest of the kernel must still see it "on the run queue".
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	if res.Next != a {
		t.Fatal("should pick the only task")
	}
	if !a.OnRunqueue() {
		t.Fatal("chosen task must still appear on the run queue")
	}
	if a.RunList.InListProper() {
		t.Fatal("chosen task must not be physically in any list")
	}
	if s.Runnable() != 0 {
		t.Fatalf("runnable = %d, want 0", s.Runnable())
	}
	s.checkInvariants()
}

func TestPrevReinsertedAndRescheduled(t *testing.T) {
	// A quantum-expired (but still runnable) prev goes back in the
	// table and competes normally.
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	dispatch(res.Next, 0)

	res2 := s.Schedule(0, a)
	if res2.Next != a {
		t.Fatalf("picked %v, want prev re-selected", res2.Next)
	}
	s.checkInvariants()
}

func TestBlockedPrevFullyDequeued(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	chosen := res.Next
	dispatch(chosen, 0)
	chosen.State = task.Interruptible

	res2 := s.Schedule(0, chosen)
	if res2.Next == chosen {
		t.Fatal("blocked task re-picked")
	}
	if chosen.OnRunqueue() {
		t.Fatal("blocked prev must be fully off the run queue")
	}
	s.checkInvariants()
}

func TestYieldingSoleTaskRerunsWithoutRecalc(t *testing.T) {
	// The paper's deliberate deviation (§5.2, Figure 2): a yielding task
	// that is the only candidate is re-run, not recalculated.
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	dispatch(res.Next, 0)
	a.Yielded = true

	res2 := s.Schedule(0, a)
	if res2.Next != a {
		t.Fatalf("picked %v, want the yielding task re-run", res2.Next)
	}
	if res2.Recalcs != 0 {
		t.Fatal("ELSC must not recalculate for a lone yielder")
	}
	if env.Epoch.N() != 0 {
		t.Fatal("epoch must not advance")
	}
	if a.Yielded {
		t.Fatal("yield bit must be cleared at the end of schedule()")
	}
}

func TestYieldLosesToCompetitorInList(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10) // same list as a
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	chosen := res.Next
	dispatch(chosen, 0)
	chosen.Yielded = true

	res2 := s.Schedule(0, chosen)
	if res2.Next == chosen {
		t.Fatal("yielded task must lose to a same-list competitor")
	}
}

func TestYieldedPrevPreferredOverDescendingLists(t *testing.T) {
	// "We will run it only if we cannot find another task on the list" —
	// the fallback applies within the top list; ELSC does not descend to
	// a lower list to dodge the yielder.
	env := newEnv(1, 2)
	s := New(env)
	y := mkTask(env, 1, 20, 12) // list 8
	lo := mkTask(env, 2, 20, 4) // list 6
	s.AddToRunqueue(y)
	s.AddToRunqueue(lo)
	res := s.Schedule(0, idlePrev())
	if res.Next != y {
		t.Fatalf("setup: expected y to be chosen first")
	}
	dispatch(y, 0)
	y.Yielded = true

	res2 := s.Schedule(0, y)
	if res2.Next != y {
		t.Fatalf("picked %v, want yielded prev from top list", res2.Next)
	}
}

func TestExhaustionRecalculatesAndMerges(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 0)
	b := mkTask(env, 2, 10, 0)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	if s.top != -1 {
		t.Fatal("setup: no selectable tasks expected")
	}

	res := s.Schedule(0, idlePrev())
	if res.Recalcs != 1 {
		t.Fatalf("recalcs = %d, want 1", res.Recalcs)
	}
	// After recalc, a has counter 20 (static 40 -> list 10), b counter
	// 10 (static 20 -> list 5): a wins.
	if res.Next != a {
		t.Fatalf("picked %v, want %v", res.Next, a)
	}
	if s.nextTop != -1 {
		t.Fatal("next_top must clear after the merge")
	}
	s.checkInvariants()
}

func TestEmptyTableIdlesWithoutRecalc(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	res := s.Schedule(0, idlePrev())
	if res.Next != nil || res.Recalcs != 0 {
		t.Fatal("empty table must idle without recalculating")
	}
}

func TestSkipsTaskRunningElsewhere(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	res := s.Schedule(1, idlePrev())
	first := res.Next
	dispatch(first, 1)

	res2 := s.Schedule(0, idlePrev())
	if res2.Next == first || res2.Next == nil {
		t.Fatalf("CPU 0 picked %v, want the other task", res2.Next)
	}
}

func TestDescendsWhenTopListAllBusy(t *testing.T) {
	// "If all tasks in the list are eliminated by this check, then we
	// consider the next populated list and try again."
	env := newEnv(2, 2)
	s := New(env)
	hi := mkTask(env, 1, 20, 30) // list 12
	lo := mkTask(env, 2, 20, 10) // list 7
	s.AddToRunqueue(hi)
	s.AddToRunqueue(lo)
	res := s.Schedule(1, idlePrev())
	if res.Next != hi {
		t.Fatal("setup: hi should be chosen")
	}
	dispatch(hi, 1)
	// hi is gone from the table (manual dequeue), so this exercises the
	// descend path via an artificially busy task instead: re-add a busy
	// marker task to the top list.
	busy := mkTask(env, 3, 20, 30)
	s.AddToRunqueue(busy)
	busy.HasCPU = true
	busy.Processor = 1

	res2 := s.Schedule(0, idlePrev())
	if res2.Next != lo {
		t.Fatalf("picked %v, want %v from a lower list", res2.Next, lo)
	}
}

func TestSearchLimitCapsExamination(t *testing.T) {
	// All tasks in one list: ELSC examines at most ncpu/2+5 of them.
	env := newEnv(1, 64)
	s := New(env)
	for i := 0; i < 64; i++ {
		s.AddToRunqueue(mkTask(env, i, 20, 10))
	}
	res := s.Schedule(0, idlePrev())
	limit := env.NCPU/2 + 5
	if res.Examined > limit {
		t.Fatalf("examined = %d, want <= %d", res.Examined, limit)
	}
	if res.Next == nil {
		t.Fatal("must still pick a task")
	}
}

func TestSearchLimitConfigOverride(t *testing.T) {
	env := newEnv(1, 64)
	s := NewWithConfig(env, Config{SearchLimit: 2})
	for i := 0; i < 10; i++ {
		s.AddToRunqueue(mkTask(env, i, 20, 10))
	}
	res := s.Schedule(0, idlePrev())
	if res.Examined > 2 {
		t.Fatalf("examined = %d, want <= 2", res.Examined)
	}
}

func TestUPShortcutStopsAtMMMatch(t *testing.T) {
	env := newEnv(1, 0) // UP build
	s := New(env)
	mm := &task.MM{ID: 7}
	other := &task.MM{ID: 8}
	// Front of list: different mm; then an mm match; then more tasks.
	c := mkTask(env, 3, 20, 10)
	c.MM = mm
	b := mkTask(env, 2, 20, 10)
	b.MM = other
	a := mkTask(env, 1, 20, 10)
	a.MM = other
	s.AddToRunqueue(c) // back
	s.AddToRunqueue(b)
	s.AddToRunqueue(a) // front
	prev := idlePrev()
	prev.MM = mm

	res := s.Schedule(0, prev)
	if res.Next != c {
		t.Fatalf("picked %v, want mm-matching %v", res.Next, c)
	}
	if res.Examined != 3 {
		t.Fatalf("examined = %d, want 3 (stop right at the match)", res.Examined)
	}
}

func TestUPShortcutDisabledByConfig(t *testing.T) {
	env := newEnv(1, 0)
	s := NewWithConfig(env, Config{DisableUPShortcut: true})
	mm := &task.MM{ID: 7}
	// An mm match early, but a higher-counter task later in the list.
	better := mkTask(env, 2, 20, 13) // same list: (13+20)/4 = 8
	match := mkTask(env, 1, 20, 12)  // (12+20)/4 = 8
	match.MM = mm
	s.AddToRunqueue(better)
	s.AddToRunqueue(match) // front
	prev := idlePrev()
	prev.MM = mm
	res := s.Schedule(0, prev)
	// Without the shortcut, goodness comparison runs: match has 12+20+1
	// = 33, better has 13+20 = 33 — tie, first examined (match) wins.
	// Raise better's counter by 1 to break the tie for the test's sake.
	_ = res
	env2 := newEnv(1, 0)
	s2 := NewWithConfig(env2, Config{DisableUPShortcut: true})
	better2 := mkTask(env2, 2, 20, 15) // goodness 35
	match2 := mkTask(env2, 1, 20, 12)  // goodness 33 w/ bonus
	match2.MM = mm
	s2.AddToRunqueue(better2)
	s2.AddToRunqueue(match2)
	prev2 := idlePrev()
	prev2.MM = mm
	res2 := s2.Schedule(0, prev2)
	if res2.Next != better2 {
		t.Fatalf("picked %v, want %v (no shortcut)", res2.Next, better2)
	}
}

func TestSMPKeepsSearchingPastMMMatch(t *testing.T) {
	env := newEnv(2, 0) // SMP build: no shortcut
	s := New(env)
	mm := &task.MM{ID: 7}
	affine := mkTask(env, 2, 20, 12)
	affine.EverRan = true
	affine.Processor = 0 // 15-point bonus on CPU 0
	match := mkTask(env, 1, 20, 12)
	match.MM = mm // only a 1-point bonus
	s.AddToRunqueue(affine)
	s.AddToRunqueue(match) // front
	prev := idlePrev()
	prev.MM = mm
	res := s.Schedule(0, prev)
	if res.Next != affine {
		t.Fatalf("picked %v, want affinity-bonused %v", res.Next, affine)
	}
}

func TestRTSelectsHighestRTPriority(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	lo := task.NewRT(1, "lo", task.FIFO, 51, env.Epoch)
	hi := task.NewRT(2, "hi", task.FIFO, 58, env.Epoch)
	s.AddToRunqueue(lo)
	s.AddToRunqueue(hi)
	// Same list (both 5x), highest rt_priority wins.
	res := s.Schedule(0, idlePrev())
	if res.Next != hi {
		t.Fatalf("picked %v, want %v", res.Next, hi)
	}
}

func TestRTBeatsRegularAlways(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	reg := mkTask(env, 1, 40, 80)
	rt := task.NewRT(2, "rt", task.FIFO, 0, env.Epoch)
	s.AddToRunqueue(reg)
	s.AddToRunqueue(rt)
	res := s.Schedule(0, idlePrev())
	if res.Next != rt {
		t.Fatalf("picked %v, want RT task (lives in a higher list)", res.Next)
	}
}

func TestRRExpiryMovesToSectionEnd(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	rr := task.NewRT(1, "rr", task.RR, 10, env.Epoch)
	peer := task.NewRT(2, "peer", task.RR, 10, env.Epoch)
	s.AddToRunqueue(rr)
	s.AddToRunqueue(peer)
	res := s.Schedule(0, idlePrev())
	first := res.Next
	dispatch(first, 0)
	first.SetCounter(env.Epoch, 0) // quantum exhausted

	res2 := s.Schedule(0, first)
	if res2.Next == first {
		t.Fatal("expired RR task must lose its position to its peer")
	}
	if first.Counter(env.Epoch) != first.Priority {
		t.Fatal("expired RR task must get a fresh quantum")
	}
	s.checkInvariants()
}

func TestSchedulerCostIndependentOfQueueDepth(t *testing.T) {
	// The headline claim: ELSC cost does not grow with runnable count.
	costAt := func(n int) uint64 {
		env := newEnv(1, n)
		s := New(env)
		for i := 0; i < n; i++ {
			s.AddToRunqueue(mkTask(env, i, 20, 1+i%39))
		}
		return s.Schedule(0, idlePrev()).Cycles
	}
	c10, c1000 := costAt(10), costAt(1000)
	if c1000 > c10*3 {
		t.Fatalf("ELSC cost grew with queue depth: %d at 10 vs %d at 1000", c10, c1000)
	}
}

// listOrder returns table list idx front to back.
func listOrder(s *Sched, idx int) []*task.Task {
	var out []*task.Task
	for t := s.env.Tasks.First(&s.lists[idx]); t != nil; t = s.env.Tasks.Next(t) {
		out = append(out, t)
	}
	return out
}

// TestMoveFirstLastWithinList: a task's place among the equals of its list
// is decided where it is filed. The kernel's re-file around a class or
// priority change (Del, change, Add) lands at the front, which is the
// paper's move_first_runqueue; Schedule sends a round-robin prev whose
// quantum expired to the back, which is its move_last_runqueue.
func TestMoveFirstLastWithinList(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b) // front: b
	s.DelFromRunqueue(a)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	if res.Next != a {
		t.Fatalf("picked %v, want the re-filed %v", res.Next, a)
	}
	s.checkInvariants()

	rrs := make([]*task.Task, 3)
	for i := range rrs {
		rrs[i] = task.NewRT(10+i, "rr", task.RR, 15, env.Epoch)
		s.AddToRunqueue(rrs[i])
	} // list 21: [rr2, rr1, rr0]
	first := s.Schedule(0, idlePrev()).Next
	if first != rrs[2] {
		t.Fatalf("picked %v, want the front task %v", first, rrs[2])
	}
	dispatch(first, 0)
	first.SetCounter(env.Epoch, 0)
	if next := s.Schedule(0, first).Next; next != rrs[1] {
		t.Fatalf("picked %v after the expiry, want %v", next, rrs[1])
	}
	if got := listOrder(s, first.QIndex); len(got) != 2 || got[0] != rrs[0] || got[1] != first {
		t.Fatalf("list after the expiry = %v, want [%v %v]: the expired task behind every equal", got, rrs[0], first)
	}
	s.checkInvariants()
}

// TestMoveLastStaysAheadOfParked: the round-robin rotation is a plain move
// to the back of the list, with no search for where a parked zero-counter
// section begins, because a real-time list has none — a real-time task is
// filed selectable whatever its counter, exhausted ones included.
func TestMoveLastStaysAheadOfParked(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	spent := task.NewRT(1, "spent", task.RR, 10, env.Epoch)
	spent.SetCounter(env.Epoch, 0)
	peer := task.NewRT(2, "peer", task.RR, 10, env.Epoch)
	s.AddToRunqueue(peer)
	s.AddToRunqueue(spent) // front: spent
	idx := spent.QIndex
	if s.z[idx] != 0 || s.nz[idx] != 2 || s.nextTop != -1 {
		t.Fatalf("list %d: nz=%d z=%d next_top=%d, want an exhausted real-time task filed selectable", idx, s.nz[idx], s.z[idx], s.nextTop)
	}
	if next := s.Schedule(0, idlePrev()).Next; next != spent {
		t.Fatalf("picked %v, want %v", next, spent)
	}
	dispatch(spent, 0)
	if next := s.Schedule(0, spent).Next; next != peer {
		t.Fatalf("picked %v, want %v (spent rotated behind it)", next, peer)
	}
	if s.z[idx] != 0 {
		t.Fatalf("z[%d] = %d after the rotation, want no parked task on a real-time list", idx, s.z[idx])
	}
	s.checkInvariants()
}

func TestDelFromRunqueueParked(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	parked := mkTask(env, 1, 20, 0)
	s.AddToRunqueue(parked)
	s.DelFromRunqueue(parked)
	if s.nextTop != -1 {
		t.Fatal("next_top must clear when the last parked task leaves")
	}
	if parked.OnRunqueue() {
		t.Fatal("task must be off queue")
	}
	s.checkInvariants()
}

func TestTableSizeTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny table should panic")
		}
	}()
	NewWithConfig(newEnv(1, 0), Config{TableSize: 5})
}

func TestPriorityChangeReindexes(t *testing.T) {
	// "its priority almost never changes, though when it does, the ELSC
	// scheduler adapts accordingly" — via del + add.
	env := newEnv(1, 0)
	s := New(env)
	a := mkTask(env, 1, 10, 10) // list (10+10)/4 = 5
	s.AddToRunqueue(a)
	if a.QIndex != 5 {
		t.Fatalf("setup: index %d", a.QIndex)
	}
	s.DelFromRunqueue(a)
	a.Priority = 40
	s.AddToRunqueue(a)
	if a.QIndex != (10+40)/4 {
		t.Fatalf("index = %d after priority change, want %d", a.QIndex, (10+40)/4)
	}
	s.checkInvariants()
}

// TestRandomOpsInvariants drives the scheduler with random kernel-like
// operation sequences and validates the full table invariant set after
// every step.
func TestRandomOpsInvariants(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := sim.NewRNG(seed)
		env := newEnv(1+rng.Intn(4), 32)
		s := New(env)
		mms := []*task.MM{nil, {ID: 1}, {ID: 2}}
		pool := make([]*task.Task, 32)
		for i := range pool {
			tk := mkTask(env, i, 1+rng.Intn(40), 0)
			tk.SetCounter(env.Epoch, rng.Intn(2*tk.Priority+1))
			tk.MM = mms[rng.Intn(3)]
			if i%8 == 7 {
				// Round-robin tasks, so case 4 rotates expired ones.
				tk.Policy, tk.RTPriority = task.RR, 10*rng.Intn(3)
			}
			pool[i] = tk
		}
		var running []*task.Task // dispatched tasks per fake CPU

		for _, op := range ops {
			tk := pool[int(op)%len(pool)]
			switch int(op) % 5 {
			case 0:
				if !tk.OnRunqueue() && !tk.HasCPU {
					tk.State = task.Running
					s.AddToRunqueue(tk)
				}
			case 1:
				if tk.OnRunqueue() && tk.RunList.InListProper() {
					s.DelFromRunqueue(tk)
				}
			case 2:
				// The kernel's re-file around a priority change.
				if tk.OnRunqueue() && tk.RunList.InListProper() {
					s.DelFromRunqueue(tk)
					if !tk.RealTime() {
						tk.Priority = 1 + rng.Intn(40)
					}
					s.AddToRunqueue(tk)
				}
			case 3: // schedule on a random CPU
				cpu := rng.Intn(env.NCPU)
				res := s.Schedule(cpu, idlePrev())
				if res.Next != nil {
					dispatch(res.Next, cpu)
					running = append(running, res.Next)
				}
			case 4: // a running task re-enters schedule as prev
				if len(running) == 0 {
					continue
				}
				i := rng.Intn(len(running))
				prev := running[i]
				running = append(running[:i], running[i+1:]...)
				if rng.Intn(3) == 0 {
					prev.State = task.Interruptible
				}
				if rng.Intn(4) == 0 {
					prev.Yielded = true
				}
				res := s.Schedule(prev.Processor, prev)
				prev.HasCPU = false
				if res.Next != nil {
					dispatch(res.Next, prev.Processor)
					running = append(running, res.Next)
				}
				prev.State = task.Running
			}
			s.checkInvariants()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBehavesLikeVanillaWithinOneList checks the paper's goal 3 in the
// regime where it holds exactly: when all runnable tasks share one table
// list and fit under the search limit, ELSC's pick agrees with a
// brute-force goodness argmax (front-of-list tie bias included).
func TestBehavesLikeVanillaWithinOneList(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%4) + 2 // 2..5 tasks, under the limit of 5
		rng := sim.NewRNG(seed)
		// The paper's "1P" configuration: SMP kernel on one processor,
		// so the UP mm-match shortcut (a documented deviation) is off.
		env := sched.NewEnv(1, true, func() int { return n })
		s := New(env)
		mms := []*task.MM{nil, {ID: 1}}
		tasks := make([]*task.Task, n)
		for i := range tasks {
			// Same priority, counters within one bucket: all in
			// list (20+8..11)/4 = 7.
			tk := mkTask(env, i, 20, 8+rng.Intn(3))
			tk.MM = mms[rng.Intn(2)]
			tasks[i] = tk
			s.AddToRunqueue(tk)
		}
		prev := idlePrev()
		prev.MM = mms[1]
		res := s.Schedule(0, prev)

		best := (*task.Task)(nil)
		bestW := -1
		for i := n - 1; i >= 0; i-- { // front of list = last added
			w := sched.Goodness(env.Epoch, tasks[i], 0, prev.MM)
			if w > bestW {
				bestW = w
				best = tasks[i]
			}
		}
		return res.Next == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNoTaskLost verifies conservation: tasks added are always either in
// the table, or running (manually dequeued), or deleted — never silently
// dropped by schedule churn.
func TestNoTaskLost(t *testing.T) {
	env := newEnv(2, 16)
	s := New(env)
	pool := make([]*task.Task, 16)
	for i := range pool {
		pool[i] = mkTask(env, i, 20, i%41)
		s.AddToRunqueue(pool[i])
	}
	rng := sim.NewRNG(99)
	var prev *task.Task
	prevCPU := 0
	for step := 0; step < 2000; step++ {
		p := idlePrev()
		if prev != nil {
			p = prev
			if rng.Intn(5) == 0 {
				p.Yielded = true
			}
		}
		res := s.Schedule(prevCPU, p)
		if prev != nil {
			prev.HasCPU = false
		}
		if res.Next != nil {
			dispatch(res.Next, prevCPU)
		}
		prev = res.Next
		s.checkInvariants()

		inTable := s.Runnable()
		running := 0
		if prev != nil {
			running = 1
		}
		if inTable+running != len(pool) {
			t.Fatalf("step %d: %d in table + %d running != %d tasks",
				step, inTable, running, len(pool))
		}
	}
}

// TestMixedListExactCharges pins one Schedule over a table whose searched
// lists hold every kind of entry the search loops distinguish — a
// real-time task pinned elsewhere, then in one SCHED_OTHER list the
// yielded prev, a task running on another CPU, an affinity-excluded one,
// two ordinary candidates and the parked zero-counter section — to its
// exact Next, Examined and Cycles, summed by hand from the per-visit
// definition (Touch for a skipped entry, Evaluate for a scored one).
func TestMixedListExactCharges(t *testing.T) {
	const cpu = 1
	env := newEnv(4, 7)
	s := New(env)
	mm := &task.MM{ID: 1}

	// Everything below shares list (20+20)/4 = 10: selectable tasks by
	// static goodness 40..43, the exhausted one by its predicted counter.
	spent := mkTask(env, 1, 20, 0)
	plain := mkTask(env, 2, 20, 23) // 43
	bonused := mkTask(env, 3, 20, 20)
	bonused.MM, bonused.EverRan, bonused.Processor = mm, true, cpu // 40 + 1 + 15 = 56
	pinned := mkTask(env, 4, 20, 22)
	pinned.CPUsAllowed = 1 << 0
	elsewhere := mkTask(env, 5, 20, 22)
	dispatch(elsewhere, 2)
	rt := task.NewRT(6, "rt", task.FIFO, 10, env.Epoch)
	rt.CPUsAllowed = 1 << 0
	for _, tk := range []*task.Task{spent, plain, bonused, pinned, elsewhere, rt} {
		s.AddToRunqueue(tk)
	}
	prev := mkTask(env, 7, 20, 21)
	prev.MM, prev.Yielded = mm, true
	dispatch(prev, cpu) // running: outside the table until Schedule re-inserts it

	const touch, evaluate = 70 + 250, 70 + 250 + 25 // DefaultCostModel on SMP
	res := s.Schedule(cpu, prev)
	// 600 base + 80+70 re-insert prev; RT list: rt touched and passed over;
	// list 10 front to back: prev (deferred), elsewhere, pinned touched,
	// bonused and plain scored, spent touched and ends the search; 60 to
	// unlink the winner.
	want := uint64(600 + 80 + 70 + touch + 3*touch + 2*evaluate + touch + 60)
	if res.Next != bonused || res.Examined != 7 || res.Cycles != want || res.Recalcs != 0 {
		t.Fatalf("next %v examined %d cycles %d recalcs %d, want %v 7 %d 0", res.Next, res.Examined, res.Cycles, res.Recalcs, bonused, want)
	}
	if prev.Yielded {
		t.Fatal("yield bit must be cleared on the way out")
	}
}
