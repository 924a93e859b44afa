package heapsched

import (
	"testing"
	"testing/quick"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
	"elsc/internal/workload/volano"
)

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

func TestPicksGlobalBest(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	lo := mkTask(env, 1, 10, 5)
	hi := mkTask(env, 2, 20, 35)
	mid := mkTask(env, 3, 20, 15)
	s.AddToRunqueue(lo)
	s.AddToRunqueue(hi)
	s.AddToRunqueue(mid)
	res := s.Schedule(0, idlePrev())
	if res.Next != hi {
		t.Fatalf("picked %v, want %v", res.Next, hi)
	}
	// Only heap tops are examined, never the whole population.
	if res.Examined > env.NCPU+2 {
		t.Fatalf("examined %d, want at most %d", res.Examined, env.NCPU+2)
	}
}

func TestChosenLeavesHeap(t *testing.T) {
	env := newEnv(1, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	s.AddToRunqueue(a)
	res := s.Schedule(0, idlePrev())
	if res.Next != a {
		t.Fatal("should pick the only task")
	}
	if a.OnRunqueue() || s.Runnable() != 0 {
		t.Fatal("chosen task must leave the heap")
	}
}

func TestExhaustedTriggersRecalcAndReheap(t *testing.T) {
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
	if res.Next != a {
		t.Fatalf("picked %v, want higher-priority %v after recalc", res.Next, a)
	}
}

func TestAffinitySeparationByHeap(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	onCPU0 := mkTask(env, 1, 20, 10)
	onCPU0.EverRan = true
	onCPU0.Processor = 0
	onCPU1 := mkTask(env, 2, 20, 10)
	onCPU1.EverRan = true
	onCPU1.Processor = 1
	s.AddToRunqueue(onCPU0)
	s.AddToRunqueue(onCPU1)
	// CPU 0 must prefer its affine task even though both heaps' tops
	// have equal static goodness.
	res := s.Schedule(0, idlePrev())
	if res.Next != onCPU0 {
		t.Fatalf("picked %v, want CPU-affine %v", res.Next, onCPU0)
	}
}

func TestHeapOrderProperty(t *testing.T) {
	env := newEnv(1, 0)
	s := New(env)
	rng := sim.NewRNG(3)
	var tasks []*task.Task
	for i := 0; i < 100; i++ {
		tk := mkTask(env, i, 1+rng.Intn(40), 0)
		tk.SetCounter(env.Epoch, 1+rng.Intn(2*tk.Priority))
		tasks = append(tasks, tk)
		s.AddToRunqueue(tk)
	}
	// Popping via Schedule must yield non-increasing static goodness.
	last := 1 << 30
	for i := 0; i < 100; i++ {
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			t.Fatalf("heap drained early at %d", i)
		}
		g := res.Next.StaticGoodness(env.Epoch)
		if g > last {
			t.Fatalf("pop %d: static goodness %d after %d (not sorted)", i, g, last)
		}
		last = g
		res.Next.HasCPU = false // pretend it finished instantly
	}
}

func TestRunsFullWorkload(t *testing.T) {
	m := kernel.NewMachine(kernel.Config{
		CPUs: 2, SMP: true, Seed: 17,
		NewScheduler: func(env *sched.Env) sched.Scheduler { return New(env) },
		MaxCycles:    600 * kernel.DefaultHz,
	})
	b := volano.Build(m, volano.Config{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 3})
	m.Run(b.Done)
	if b.Deliveries() != b.ExpectedDeliveries() {
		t.Fatalf("deliveries %d != %d under heap scheduler", b.Deliveries(), b.ExpectedDeliveries())
	}
}

func TestRTBeatsRegular(t *testing.T) {
	env := newEnv(1, 2)
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

// checkHeapInvariants verifies heap ordering and back-pointer consistency.
func checkHeapInvariants(t *testing.T, s *Sched) {
	t.Helper()
	total := 0
	for id := range s.heaps {
		h := &s.heaps[id]
		for i := range h.es {
			e := h.es[i]
			if e.t.QIndex != i || e.t.QStamp != uint64(id) || !e.t.OnRunqueue() || e.t.RunList.InListProper() {
				t.Fatalf("heap %d slot %d: stale back-pointers on %v", id, i, e.t)
			}
			for _, child := range []int{2*i + 1, 2*i + 2} {
				if child < len(h.es) && h.less(child, i) {
					t.Fatalf("heap %d: child %d outranks parent %d", id, child, i)
				}
			}
		}
		total += len(h.es)
	}
	if total != s.total {
		t.Fatalf("total %d, heaps hold %d", s.total, total)
	}
}

func TestHeapInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := sim.NewRNG(seed)
		env := newEnv(1+rng.Intn(3), 12)
		s := New(env)
		pool := make([]*task.Task, 12)
		for i := range pool {
			pool[i] = mkTask(env, i, 1+rng.Intn(40), rng.Intn(41))
		}
		for _, op := range ops {
			tk := pool[int(op)%len(pool)]
			switch int(op) % 5 {
			case 0:
				if !tk.OnRunqueue() && !tk.HasCPU {
					s.AddToRunqueue(tk)
				}
			case 1:
				if tk.OnRunqueue() {
					s.DelFromRunqueue(tk)
				}
			case 2: // the kernel's re-file around a priority change
				if tk.OnRunqueue() {
					s.DelFromRunqueue(tk)
					tk.Priority = 1 + rng.Intn(40)
					s.AddToRunqueue(tk)
				}
			case 3: // ...and around a class change
				if tk.OnRunqueue() {
					s.DelFromRunqueue(tk)
					tk.Policy, tk.RTPriority = task.RR, rng.Intn(100)
					if rng.Intn(2) == 0 {
						tk.Policy, tk.RTPriority = task.Other, 0
					}
					s.AddToRunqueue(tk)
				}
			case 4:
				cpu := rng.Intn(env.NCPU)
				res := s.Schedule(cpu, idlePrev())
				if res.Next != nil {
					res.Next.EverRan = true
					res.Next.Processor = cpu
					s.AddToRunqueue(res.Next)
				}
			}
			checkHeapInvariants(t, s)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
