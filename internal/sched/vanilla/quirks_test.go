package vanilla

import (
	"testing"
	"testing/quick"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// Additional tests for the stock scheduler's subtler 2.3.99 mechanics.

func TestPrevReselectedWhenStillBest(t *testing.T) {
	// A quantum-rich prev that merely got a resched interrupt must be
	// chosen again when nothing better exists.
	env := newEnv(1, 2)
	s := New(env)
	prev := mkTask(env, 1, 20, 30)
	weak := mkTask(env, 2, 20, 3)
	s.AddToRunqueue(prev)
	s.AddToRunqueue(weak)
	prev.HasCPU = true
	prev.Processor = 0
	prev.EverRan = true
	s.NoteRunning(prev, true)

	res := s.Schedule(0, prev)
	if res.Next != prev {
		t.Fatalf("picked %v, want prev re-selected", res.Next)
	}
}

func TestMMBonusBreaksTie(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	mm := &task.MM{ID: 1}
	plain := mkTask(env, 1, 20, 10)
	shared := mkTask(env, 2, 20, 10)
	shared.MM = mm
	// plain is at the front and would win a pure tie.
	s.AddToRunqueue(shared)
	s.AddToRunqueue(plain)
	prev := idlePrev()
	prev.MM = mm
	res := s.Schedule(0, prev)
	if res.Next != shared {
		t.Fatalf("picked %v, want mm-sharing %v", res.Next, shared)
	}
}

func TestRecalcAlsoRechargesBlockedTasks(t *testing.T) {
	// "recalculating the counter values of all tasks in the system
	// (runnable or otherwise)" — a sleeper's counter grows through
	// recalculations it sleeps across.
	env := newEnv(1, 3)
	s := New(env)
	sleeper := mkTask(env, 1, 20, 4)
	sleeper.State = task.Interruptible // blocked, not queued

	exhausted := mkTask(env, 2, 20, 0)
	s.AddToRunqueue(exhausted)
	res := s.Schedule(0, idlePrev())
	if res.Recalcs != 1 {
		t.Fatalf("recalcs = %d, want 1", res.Recalcs)
	}
	if got := sleeper.Counter(env.Epoch); got != 4/2+20 {
		t.Fatalf("sleeper counter = %d, want 22 (c/2+p)", got)
	}
}

func TestRunnableCountTracksNoteRunning(t *testing.T) {
	env := newEnv(2, 4)
	s := New(env)
	tasks := make([]*task.Task, 4)
	for i := range tasks {
		tasks[i] = mkTask(env, i, 20, 10)
		s.AddToRunqueue(tasks[i])
	}
	if s.Runnable() != 4 {
		t.Fatalf("runnable = %d, want 4", s.Runnable())
	}
	tasks[0].HasCPU = true
	s.NoteRunning(tasks[0], true)
	if s.Runnable() != 3 {
		t.Fatalf("runnable = %d, want 3", s.Runnable())
	}
	tasks[0].HasCPU = false
	s.NoteRunning(tasks[0], false)
	if s.Runnable() != 4 {
		t.Fatalf("runnable = %d, want 4 again", s.Runnable())
	}
}

func TestScanAlwaysFindsRunnableQuick(t *testing.T) {
	// Liveness: with at least one selectable task, Schedule never
	// returns idle.
	f := func(seed int64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%15) + 1
		env := sched.NewEnv(2, true, func() int { return n })
		s := New(env)
		free := 0
		for i := 0; i < n; i++ {
			tk := mkTask(env, i, 1+rng.Intn(40), 0)
			tk.SetCounter(env.Epoch, rng.Intn(2*tk.Priority+1))
			s.AddToRunqueue(tk)
			if rng.Intn(3) == 0 {
				tk.HasCPU = true
				tk.Processor = 1
				s.NoteRunning(tk, true)
			} else {
				free++
			}
		}
		res := s.Schedule(0, idlePrev())
		if free == 0 {
			return res.Next == nil
		}
		return res.Next != nil && !res.Next.HasCPU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAffinityMaskRespectedQuick(t *testing.T) {
	// A task pinned away from this CPU is never selected, regardless of
	// goodness.
	f := func(seed int64, n8 uint8) bool {
		rng := sim.NewRNG(seed)
		n := int(n8%10) + 2
		env := sched.NewEnv(2, true, func() int { return n })
		s := New(env)
		for i := 0; i < n; i++ {
			tk := mkTask(env, i, 1+rng.Intn(40), 10)
			if i%2 == 0 {
				tk.CPUsAllowed = 1 << 1 // CPU 1 only
			}
			s.AddToRunqueue(tk)
		}
		res := s.Schedule(0, idlePrev())
		return res.Next != nil && res.Next.AllowedOn(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIdleWithOnlyPinnedAwayTasks(t *testing.T) {
	env := newEnv(2, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	a.CPUsAllowed = 1 << 1
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	if res.Next != nil {
		t.Fatalf("picked %v on a forbidden CPU", res.Next)
	}
	if res.Recalcs != 0 {
		t.Fatal("pinned-away tasks must not trigger recalculation")
	}
}
