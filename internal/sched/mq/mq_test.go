package mq

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

func TestNewTasksBalanceAcrossQueues(t *testing.T) {
	env := newEnv(4, 8)
	s := New(env)
	for i := 0; i < 8; i++ {
		s.AddToRunqueue(mkTask(env, i, 20, 10))
	}
	for q := 0; q < 4; q++ {
		if s.counts[q] != 2 {
			t.Fatalf("queue %d has %d tasks, want balanced 2", q, s.counts[q])
		}
	}
}

func TestWokenTaskGoesHome(t *testing.T) {
	env := newEnv(2, 1)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	a.EverRan = true
	a.Processor = 1
	s.AddToRunqueue(a)
	if s.counts[1] != 1 || s.counts[0] != 0 {
		t.Fatal("woken task must be filed on its last CPU's queue")
	}
}

func TestLocalQueuePreferred(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	local := mkTask(env, 1, 20, 10)
	local.EverRan = true
	local.Processor = 0
	remote := mkTask(env, 2, 20, 40) // better goodness, wrong queue
	remote.EverRan = true
	remote.Processor = 1
	s.AddToRunqueue(local)
	s.AddToRunqueue(remote)
	res := s.Schedule(0, idlePrev())
	if res.Next != local {
		t.Fatalf("picked %v, want local %v (mq never scans remote queues while local work exists)", res.Next, local)
	}
}

func TestStealsWhenLocalEmpty(t *testing.T) {
	env := newEnv(2, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	a.EverRan = true
	a.Processor = 1
	b := mkTask(env, 2, 20, 5)
	b.EverRan = true
	b.Processor = 1
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	if res.Next == nil {
		t.Fatal("CPU 0 should steal from CPU 1's queue")
	}
}

func TestExaminesOnlyLocalQueue(t *testing.T) {
	env := newEnv(4, 40)
	s := New(env)
	for i := 0; i < 40; i++ {
		tk := mkTask(env, i, 20, 10)
		tk.EverRan = true
		tk.Processor = i % 4
		s.AddToRunqueue(tk)
	}
	res := s.Schedule(0, idlePrev())
	if res.Examined > 10 {
		t.Fatalf("examined %d, want ~10 (one queue of 40/4)", res.Examined)
	}
}

func TestExhaustedLocalRecalculates(t *testing.T) {
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
	if res.Next == nil {
		t.Fatal("must pick a task after recalculation")
	}
}

func TestPerCPUMarker(t *testing.T) {
	if New(newEnv(2, 0)).Visibility() != sched.VisibleOwner {
		t.Fatal("mq must advertise per-CPU queues")
	}
}

func TestRunsFullWorkload(t *testing.T) {
	m := kernel.NewMachine(kernel.Config{
		CPUs: 4, SMP: true, Seed: 23,
		NewScheduler: func(env *sched.Env) sched.Scheduler { return New(env) },
		MaxCycles:    600 * kernel.DefaultHz,
	})
	b := volano.Build(m, volano.Config{Rooms: 2, UsersPerRoom: 4, MessagesPerUser: 4})
	m.Run(b.Done)
	if b.Deliveries() != b.ExpectedDeliveries() {
		t.Fatalf("deliveries %d != %d under mq scheduler", b.Deliveries(), b.ExpectedDeliveries())
	}
	if m.Stats().SchedCalls == 0 {
		t.Fatal("no scheduling recorded")
	}
}

func TestYieldAlternatesWithinQueue(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := mkTask(env, 1, 20, 10)
	b := mkTask(env, 2, 20, 10)
	s.AddToRunqueue(a)
	s.AddToRunqueue(b)
	res := s.Schedule(0, idlePrev())
	first := res.Next
	first.HasCPU = true
	first.Processor = 0
	first.EverRan = true
	first.Yielded = true
	res2 := s.Schedule(0, first)
	if res2.Next == first {
		t.Fatal("yielded task must lose to its queue peer")
	}
}

// listLen walks queue q.
func listLen(s *Sched, q int) int {
	n := 0
	for t := s.env.Tasks.First(&s.queues[q]); t != nil; t = s.env.Tasks.Next(t) {
		n++
	}
	return n
}

// checkInvariants validates the per-queue counters against the lists.
func (s *Sched) checkInvariants(t *testing.T) {
	t.Helper()
	for q := range s.queues {
		if n := listLen(s, q); n != s.counts[q] {
			t.Fatalf("queue %d: len %d, count %d", q, n, s.counts[q])
		}
	}
}

func TestRandomOpsKeepCountsConsistent(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := sim.NewRNG(seed)
		env := newEnv(1+rng.Intn(4), 16)
		s := New(env)
		pool := make([]*task.Task, 16)
		for i := range pool {
			pool[i] = mkTask(env, i, 1+rng.Intn(40), rng.Intn(41))
		}
		for _, op := range ops {
			tk := pool[int(op)%len(pool)]
			switch int(op) % 4 {
			case 0:
				if !tk.OnRunqueue() && !tk.HasCPU {
					s.AddToRunqueue(tk)
				}
			case 1:
				if tk.OnRunqueue() {
					s.DelFromRunqueue(tk)
				}
			case 2:
				// The kernel's re-file around a priority change.
				if tk.OnRunqueue() {
					s.DelFromRunqueue(tk)
					tk.Priority = 1 + rng.Intn(40)
					s.AddToRunqueue(tk)
				}
			case 3:
				cpu := rng.Intn(env.NCPU)
				res := s.Schedule(cpu, idlePrev())
				if res.Next != nil {
					res.Next.HasCPU = true
					res.Next.Processor = cpu
					res.Next.EverRan = true
					// Immediately return it to keep churn going.
					res.Next.HasCPU = false
					s.AddToRunqueue(res.Next)
				}
			}
			total := 0
			for q := range s.queues {
				if listLen(s, q) != s.counts[q] {
					return false
				}
				total += s.counts[q]
			}
			if total != s.Runnable() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStealRebalancesLoad(t *testing.T) {
	env := newEnv(2, 8)
	s := New(env)
	// Pile all the work onto CPU 1's queue.
	for i := 0; i < 8; i++ {
		tk := mkTask(env, i, 20, 10)
		tk.EverRan = true
		tk.Processor = 1
		s.AddToRunqueue(tk)
	}
	s.checkInvariants(t)
	// CPU 0 steals repeatedly; each stolen task then homes to CPU 0.
	for i := 0; i < 4; i++ {
		res := s.Schedule(0, idlePrev())
		if res.Next == nil {
			t.Fatalf("steal %d failed with %d tasks queued", i, s.Runnable())
		}
		res.Next.HasCPU = true
		res.Next.Processor = 0
		res.Next.EverRan = true
		res.Next.HasCPU = false
		s.AddToRunqueue(res.Next)
		s.checkInvariants(t)
	}
	if s.counts[0] == 0 {
		t.Fatal("stolen tasks should now home on CPU 0")
	}
}

// TestMixedQueueExactCharges pins one scan of a local queue holding every
// kind of entry scanQueue distinguishes — the yielded prev, a task running
// on another CPU, an affinity-excluded one, a real-time task, an exhausted
// one and two ordinary candidates — to its exact Next, Examined and
// Cycles, summed by hand from the per-visit definition (Touch for a
// skipped entry, Evaluate for a scored one).
func TestMixedQueueExactCharges(t *testing.T) {
	const cpu = 1
	env := newEnv(4, 7)
	s := New(env)
	mm := &task.MM{ID: 1}
	home := func(tk *task.Task) *task.Task { // file on cpu's queue
		tk.EverRan, tk.Processor = true, cpu
		s.AddToRunqueue(tk)
		return tk
	}

	elsewhere := home(mkTask(env, 1, 20, 30))
	elsewhere.HasCPU, elsewhere.Processor = true, 2
	pinned := home(mkTask(env, 2, 20, 30))
	pinned.CPUsAllowed = 1 << 0
	rt := home(task.NewRT(3, "rt", task.FIFO, 10, env.Epoch))
	home(mkTask(env, 4, 20, 0))          // exhausted
	home(mkTask(env, 5, 20, 20))         // 40 + 15 (affinity) = 55
	home(mkTask(env, 6, 20, 10)).MM = mm // 30 + 15, + 1 after an mm peer
	prev := mkTask(env, 7, 20, 25)
	prev.MM, prev.EverRan, prev.Processor, prev.Yielded = mm, true, cpu, true

	const touch, evaluate = 70 + 250, 70 + 250 + 25 // DefaultCostModel on SMP
	res := s.Schedule(cpu, prev)
	// 600 base + 80 re-file prev; prev, elsewhere, pinned skipped; rt,
	// exhausted, plain, bonused scored; 60 to unlink the winner.
	want := uint64(600 + 80 + 3*touch + 4*evaluate + 60)
	if res.Next != rt || res.Examined != 7 || res.Cycles != want || res.Recalcs != 0 {
		t.Fatalf("first scan: next %v examined %d cycles %d recalcs %d, want %v 7 %d 0", res.Next, res.Examined, res.Cycles, res.Recalcs, rt, want)
	}

	// The real-time task is gone (dispatched); prev is queued and no longer
	// yielding, so it is scored too: 45 + 15 = 60 beats the plain 55.
	res = s.Schedule(cpu, idlePrev())
	want = uint64(600 + 2*touch + 4*evaluate + 60)
	if res.Next != prev || res.Examined != 6 || res.Cycles != want {
		t.Fatalf("second scan: next %v examined %d cycles %d, want %v 6 %d", res.Next, res.Examined, res.Cycles, prev, want)
	}
}
