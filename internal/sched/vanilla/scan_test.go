package vanilla

import (
	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// scanSched is the stock scheduler as the paper describes it and as Sched
// simulates it: one unsorted list, walked in full on every call, goodness()
// computed for every task the walk does not skip. It is the oracle
// FuzzRegIndex holds Sched to — same decisions, Examined, Cycles,
// recalculations, counter syncs and yield bits — and it is kept exactly as
// the policy read before Sched indexed its queue.
type scanSched struct {
	env *sched.Env
	rq  klist.Head
	// running counts tasks on the queue currently marked HasCPU, so
	// Runnable can exclude them without a scan.
	running int
}

func newScan(env *sched.Env) *scanSched {
	return &scanSched{env: env}
}

// AddToRunqueue adds t at the front of the run queue, as add_to_runqueue
// does for newly created or awakened tasks (paper §3.2).
func (s *scanSched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("vanilla: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	t.SyncCounter(s.env.Epoch)
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().PushFront(&s.rq, n, i)
	if t.HasCPU {
		s.running++
	}
}

// DelFromRunqueue unlinks t.
func (s *scanSched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().Remove(&s.rq, n, i)
	if t.HasCPU {
		s.running--
	}
}

// Runnable returns the number of queued tasks not currently executing.
func (s *scanSched) Runnable() int { return s.rq.Len() - s.running }

// Drain empties the one queue, front to back.
func (s *scanSched) Drain(_ int, out []*task.Task) []*task.Task {
	for t := s.env.Tasks.First(&s.rq); t != nil; t = s.env.Tasks.First(&s.rq) {
		s.DelFromRunqueue(t)
		out = append(out, t)
	}
	return out
}

// NoteRunning keeps Runnable O(1) across the kernel's HasCPU flips.
func (s *scanSched) NoteRunning(t *task.Task, running bool) {
	if !t.OnRunqueue() {
		return
	}
	if running {
		s.running++
	} else {
		s.running--
	}
}

// Schedule implements the heart of 2.3.99-pre4 schedule(): evaluate the
// goodness of every runnable task and pick the best (paper §3.3.2).
func (s *scanSched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}

	if !prev.IsIdle {
		// Round-robin expiry: reset the quantum and send the task to
		// the back of the queue (move_last_runqueue), where it loses
		// goodness ties, before scanning.
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
			if prev.OnRunqueue() {
				n, i := s.env.Tasks.Link(prev)
				s.env.Tasks.Nodes().MoveBack(&s.rq, n, i)
			}
			res.Cycles += env.Cost.MoveRunqueue
		}
		// A task that is no longer runnable (blocked, exited) leaves
		// the run queue inside schedule(), as in the kernel.
		if !prev.Runnable() && prev.OnRunqueue() {
			s.DelFromRunqueue(prev)
			res.Cycles += env.Cost.DelRunqueue
		}
	}

	yieldConsulted := false
	for {
		best := (*task.Task)(nil)
		c := -1000 // the kernel's initial weight

		for t := env.Tasks.First(&s.rq); t != nil; t = env.Tasks.Next(t) {
			res.Examined++
			// can_schedule: skip tasks executing on another CPU or
			// excluded by their affinity mask.
			if (t.HasCPU && t != prev) || !t.AllowedOn(cpu) {
				res.Cycles += env.Cost.Touch(env.NCPU)
				continue
			}
			var w int
			if t == prev && prev.Yielded && !yieldConsulted {
				// sys_sched_yield: the yielding task is offered
				// with goodness zero; the bit is cleared now so a
				// rescan after recalculation treats it normally.
				w = 0
				prev.Yielded = false
				yieldConsulted = true
				res.Cycles += env.Cost.Touch(env.NCPU)
			} else {
				w = sched.Goodness(env.Epoch, t, cpu, prev.MM)
				res.Cycles += env.Cost.Evaluate(env.NCPU)
			}
			if w > c {
				c = w
				best = t
			}
		}

		if c == 0 {
			// Every candidate's quantum is spent (or the lone
			// candidate yielded): recalculate the counter of every
			// task in the system and search again (paper §3.3.2).
			env.Epoch.Bump()
			res.Recalcs++
			res.Cycles += uint64(env.NTasks()) * env.Cost.RecalcPerTask
			if res.Recalcs > 8 {
				panic("vanilla: recalculation livelock")
			}
			continue
		}
		// c == -1000 means the queue is empty or everything is running
		// elsewhere: schedule the idle task, with no recalculation
		// (paper footnote 1).
		res.Next = best
		return res
	}
}
