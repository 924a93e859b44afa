// Package mq implements the second alternative design from the paper's
// future work (§8): "perhaps a multi-priority-queue solution would be more
// beneficial to help the scheduler scale to multiple processors well."
//
// Each processor owns a private run queue protected by its own lock (the
// kernel reads the VisibleOwner declaration and splits the global
// run-queue lock), eliminating the cross-CPU contention that melts the
// stock scheduler at four processors. A woken task is filed on the queue
// of the CPU it last ran on; a CPU whose queue is empty steals the best
// task from the longest queue. This is the direction Linux ultimately took
// in the 2.5 O(1) scheduler and everything after it.
package mq

import (
	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// Sched is the per-CPU multi-queue scheduler. Create with New.
type Sched struct {
	env    *sched.Env
	queues []klist.Head
	counts sched.QueueLens // per-queue lengths; placement is the shared Home rule
}

// New returns a multi-queue scheduler bound to env.
func New(env *sched.Env) *Sched {
	return &Sched{
		env:    env,
		queues: make([]klist.Head, env.NCPU),
		counts: make(sched.QueueLens, env.NCPU),
	}
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "mq" }

// Visibility implements sched.Scheduler: a queued task waits on CPU
// QIndex's private queue, under that queue's own lock.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleOwner }

// AddToRunqueue files t at the front of its home queue.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("mq: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	t.SyncCounter(s.env.Epoch)
	home := s.counts.Home(s.env, t)
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().PushFront(&s.queues[home], n, i)
	s.counts[home]++
	t.QIndex = home
}

// DelFromRunqueue unlinks t from its queue.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().Remove(&s.queues[t.QIndex], n, i)
	s.counts[t.QIndex]--
}

// Runnable returns the number of queued tasks.
func (s *Sched) Runnable() int { return s.counts.Total() }

// Drain implements sched.Scheduler: empty CPU q's private queue, front to
// back.
func (s *Sched) Drain(q int, out []*task.Task) []*task.Task {
	for t := s.env.Tasks.First(&s.queues[q]); t != nil; t = s.env.Tasks.First(&s.queues[q]) {
		s.DelFromRunqueue(t)
		out = append(out, t)
	}
	return out
}

// Schedule scans only this CPU's queue — O(n/ncpu) — and steals when it
// is empty.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}

	yielded := false
	if !prev.IsIdle {
		yielded = prev.Yielded
		prev.Yielded = false
		rrExpired := prev.Policy == task.RR && prev.Counter(env.Epoch) == 0
		if rrExpired {
			prev.SetCounter(env.Epoch, prev.Priority)
		}
		if prev.Runnable() && !prev.OnRunqueue() {
			s.AddToRunqueue(prev)
			if rrExpired {
				// Round-robin rotation: behind its rt_priority equals,
				// which the scan's strict > then prefers. Its goodness
				// still beats every lower level.
				n, i := env.Tasks.Link(prev)
				env.Tasks.Nodes().MoveBack(&s.queues[prev.QIndex], n, i)
			}
			res.Cycles += env.Cost.AddRunqueue
		}
	}

	for attempt := 0; ; attempt++ {
		best, bestG, sawZero := s.scanQueue(cpu, cpu, prev, yielded, &res)
		if best == nil && s.counts[cpu] == 0 {
			// Empty local queue: steal from the longest queue.
			victim := -1
			for i, c := range s.counts {
				if i == cpu || c == 0 {
					continue
				}
				if victim < 0 || c > s.counts[victim] {
					victim = i
				}
			}
			if victim >= 0 {
				res.Cycles += env.Cost.LockOp // victim queue's lock
				best, bestG, _ = s.scanQueue(victim, cpu, prev, yielded, &res)
			}
		}
		if best == nil && sawZero && attempt == 0 {
			// The local queue holds only exhausted tasks. The stock
			// scheduler recalculates counters only when NO runnable task
			// in the system has quantum left; with private queues that
			// global condition must be checked explicitly. Recalculating
			// on local exhaustion alone recharges tasks on busy remote
			// queues too, and a never-run task — its counter capped at
			// the 2*prio-1 fixed point — loses to freshly recharged
			// affinity-bonused neighbours forever (scenario fuzzer,
			// seed 586). Steal the best remote task that still has
			// quantum; recalculate only if there is none anywhere.
			for q := range s.queues {
				if q == cpu || s.counts[q] == 0 {
					continue
				}
				res.Cycles += env.Cost.LockOp // remote queue's lock
				b, g, _ := s.scanQueue(q, cpu, prev, yielded, &res)
				if b != nil && g > bestG {
					best, bestG = b, g
				}
			}
			if best == nil {
				env.Epoch.Bump()
				res.Recalcs++
				res.Cycles += uint64(env.NTasks()) * env.Cost.RecalcPerTask
				continue
			}
		}
		if best == nil && yielded && prev.Runnable() && prev.OnRunqueue() {
			best = prev
		}
		if best != nil {
			s.DelFromRunqueue(best)
			res.Cycles += env.Cost.DelRunqueue
			res.Next = best
		}
		return res
	}
}

// scanQueue evaluates queue q's tasks for execution on cpu.
func (s *Sched) scanQueue(q, cpu int, prev *task.Task, yielded bool, res *sched.Result) (*task.Task, int, bool) {
	env := s.env
	var best *task.Task
	bestG := 0
	sawZero := false
	for t := env.Tasks.First(&s.queues[q]); t != nil; t = env.Tasks.Next(t) {
		res.Examined++
		if !sched.CanSchedule(t, cpu) || t == prev && yielded {
			res.Cycles += env.Cost.Touch(env.NCPU)
			continue
		}
		res.Cycles += env.Cost.Evaluate(env.NCPU)
		g := sched.Goodness(env.Epoch, t, cpu, prev.MM)
		if g == 0 {
			sawZero = true
			continue
		}
		if g > bestG {
			bestG = g
			best = t
		}
	}
	return best, bestG, sawZero
}
