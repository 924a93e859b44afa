package elsc

import (
	"strings"
	"testing"
	"testing/quick"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// Additional tests for the paper's subtler ELSC mechanics: real-time
// tasks in the table, the on-queue illusion, and liveness under random
// multiprocessor schedules.

func TestRTNeverParked(t *testing.T) {
	// Real-time tasks are always selectable: even with counter zero they
	// must not land in the parked zero section.
	env := newEnv(1, 0)
	s := New(env)
	rr := task.NewRT(1, "rr", task.RR, 30, env.Epoch)
	rr.SetCounter(env.Epoch, 0)
	s.AddToRunqueue(rr)
	if s.top < 0 {
		t.Fatal("RT task did not set top")
	}
	res := s.Schedule(0, idlePrev())
	if res.Next != rr {
		t.Fatalf("picked %v, want the RT task despite zero counter", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("RT selection must not recalculate")
	}
}

func TestRTListsAboveAllRegularLists(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	rt := task.NewRT(1, "rt", task.FIFO, 0, env.Epoch) // lowest RT priority
	best := mkTask(env, 2, task.MaxPriority, 2*task.MaxPriority)
	s.AddToRunqueue(rt)
	s.AddToRunqueue(best)
	if rt.QIndex <= best.QIndex {
		t.Fatalf("rt list %d must be above the best regular list %d", rt.QIndex, best.QIndex)
	}
}

func TestWakeOfDanglingTaskIsIgnored(t *testing.T) {
	// A running task still "on the run queue" (footnote 3) must not be
	// double-inserted by a stray AddToRunqueue.
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	dispatch(res.Next, 0)

	s.AddToRunqueue(a) // stray wake while running
	if s.Runnable() != 0 {
		t.Fatal("dangling task was re-inserted")
	}
	s.checkInvariants()
}

// TestMoveOpsOnDanglingAreNoops: the rotation of a lone round-robin task.
// Schedule puts the dangling prev back in its list and moves it to the
// back of a list it is alone on; it is picked again with a fresh quantum.
func TestMoveOpsOnDanglingAreNoops(t *testing.T) {
	env := newEnv(1, 1)
	s := New(env)
	a := task.NewRT(1, "rr", task.RR, 10, env.Epoch)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	dispatch(res.Next, 0)
	a.SetCounter(env.Epoch, 0)
	if next := s.Schedule(0, a).Next; next != a {
		t.Fatalf("picked %v, want the lone round-robin task again", next)
	}
	if a.Counter(env.Epoch) != a.Priority || a.RunList.InListProper() {
		t.Fatalf("counter %d, in list %v: want a recharged task pulled out of its list", a.Counter(env.Epoch), a.RunList.InListProper())
	}
	s.checkInvariants()
}

func TestRepeatedRecalcCycles(t *testing.T) {
	// Drive several full exhaust/recalculate cycles and check the table
	// invariants survive each one.
	env := newEnv(1, 3)
	s := New(env)
	tasks := []*task.Task{
		mkTask(env, 1, 30, 0),
		mkTask(env, 2, 20, 0),
		mkTask(env, 3, 10, 0),
	}
	for _, tk := range tasks {
		s.AddToRunqueue(tk)
	}
	for cycle := 0; cycle < 5; cycle++ {
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			t.Fatalf("cycle %d: no task chosen", cycle)
		}
		s.checkInvariants()
		// Exhaust the chosen task and return it.
		dispatch(res.Next, 0)
		res.Next.SetCounter(env.Epoch, 0)
		res2 := s.Schedule(0, res.Next)
		res.Next.HasCPU = false
		if res2.Next != nil {
			dispatch(res2.Next, 0)
			res2.Next.SetCounter(env.Epoch, 0)
			res2.Next.HasCPU = false
			// Block it so the table drains toward exhaustion.
			res2.Next.State = task.Interruptible
			s.Schedule(0, res2.Next)
			res2.Next.State = task.Running
			s.AddToRunqueue(res2.Next)
		}
		s.checkInvariants()
	}
}

func TestBusyTasksConsumeSearchLimit(t *testing.T) {
	// On SMP, tasks running elsewhere still consume the examination
	// budget — that is why the paper sizes the limit by processor count.
	env := sched.NewEnv(8, true, func() int { return 16 })
	s := New(env)
	limit := env.NCPU/2 + 5 // 9
	// Fill the top list with busy tasks up to the limit, in front of one
	// free task at the back.
	free := mkTask(env, 99, 20, 10)
	s.AddToRunqueue(free)
	for i := 0; i < limit; i++ {
		busy := mkTask(env, i, 20, 10)
		s.AddToRunqueue(busy) // in front of free
		busy.HasCPU = true
		busy.Processor = 1
	}

	res := s.Schedule(0, idlePrev())
	// All nine examinations go to busy tasks; the free task at position
	// limit+1 is never reached, and the scan falls through to lower
	// lists (none) — so the CPU idles. This is the documented cost of
	// the bounded search.
	if res.Next != nil {
		t.Fatalf("picked %v; the free task should be shadowed by the limit", res.Next)
	}
	if res.Examined > limit {
		t.Fatalf("examined %d, limit %d", res.Examined, limit)
	}
}

func TestLivenessUnderRandomSMPSchedules(t *testing.T) {
	// Whenever a selectable task exists, schedule() must find one:
	// no configuration of parked/busy tasks may wedge the table.
	f := func(seed int64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%12) + 1
		env := sched.NewEnv(2, true, func() int { return n })
		s := New(env)
		tasks := make([]*task.Task, n)
		for i := range tasks {
			tk := mkTask(env, i, 1+rng.Intn(40), 0)
			tk.SetCounter(env.Epoch, rng.Intn(2*tk.Priority+1))
			tasks[i] = tk
			s.AddToRunqueue(tk)
		}
		res := s.Schedule(0, idlePrev())
		// With every task present and none busy, the only no-pick
		// outcome allowed is an empty table — impossible here. Even if
		// all counters were zero, the recalculation path must produce
		// a winner.
		if res.Next == nil {
			return false
		}
		s.checkInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroCounterWakeGoesToPredictedList(t *testing.T) {
	// A task that blocks at the exact moment its quantum dies wakes with
	// counter zero and must be parked at its predicted slot, not lost.
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 0)
	s.AddToRunqueue(a)
	if s.nextTop < 0 {
		t.Fatal("zero-counter wake not parked")
	}
	// A selectable task must still win without recalculation.
	b := mkTask(env, 2, 20, 5)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	if res.Next != b || res.Recalcs != 0 {
		t.Fatalf("picked %v with %d recalcs, want %v with 0", res.Next, res.Recalcs, b)
	}
}

func TestUPShortcutIgnoresNilMM(t *testing.T) {
	// Kernel threads (nil mm) must not trigger the mm-match shortcut.
	env := newEnv(1, 0) // UP
	s := New(env)
	a := mkTask(env, 1, 20, 10) // nil MM
	b := mkTask(env, 2, 20, 12) // nil MM, better counter
	s.AddToRunqueue(b)
	s.AddToRunqueue(a) // front
	prev := idlePrev() // nil MM
	res := s.Schedule(0, prev)
	if res.Next != b {
		t.Fatalf("picked %v, want %v (no phantom mm match)", res.Next, b)
	}
}

func TestDumpShowsFigure1bStructure(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	a := mkTask(env, 1, 20, 20) // sg 40, list 10
	a.Name = "forty"
	b := mkTask(env, 2, 20, 12) // sg 32, list 8
	b.Name = "thirtytwo"
	parked := mkTask(env, 3, 20, 0)
	parked.Name = "spent"
	rt := task.NewRT(4, "rtguy", task.FIFO, 55, env.Epoch)
	for _, tk := range []*task.Task{a, b, parked, rt} {
		s.AddToRunqueue(tk)
	}
	out := s.Dump()
	for _, want := range []string{"forty sg=40", "thirtytwo sg=32", "(spent c=0)", "rtguy rt=55", "top=25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	// Higher lists must print before lower ones.
	if strings.Index(out, "rtguy") > strings.Index(out, "forty") {
		t.Fatalf("dump not ordered high-to-low:\n%s", out)
	}
}
