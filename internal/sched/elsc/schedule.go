package elsc

import (
	"elsc/internal/sched"
	"elsc/internal/task"
)

// Schedule implements the ELSC scheduling algorithm (paper §5.2).
//
// Order of operations, as in the paper: re-insert the previous task if it
// is still runnable (running tasks live outside the table); move exhausted
// SCHED_RR tasks to the end of their list; decide whether to recalculate
// counters from the top/next_top pointers; then search the highest
// populated list, examining at most ncpu/2+5 tasks.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}

	yieldedPrev := false
	if !prev.IsIdle {
		yieldedPrev = prev.Yielded
		if prev.Runnable() {
			// The previous task was manually dequeued when it was
			// dispatched; put it back in the table so the search
			// loop can consider it without special-casing
			// ("we insert the task in the table now lest we lose
			// track of it").
			if prev.OnRunqueue() && !prev.RunList.InListProper() {
				prev.RunList.ResetDangling()
			}
			if !prev.OnRunqueue() {
				s.AddToRunqueue(prev)
				res.Cycles += env.Cost.AddRunqueue + env.Cost.TableIndexCost
			}
			// Exhausted round-robin tasks get a fresh quantum and
			// lose position. Their list index depends only on
			// rt_priority, so a move within the list suffices, and a
			// real-time list never holds a parked task, so its back
			// is the back of the selectable section.
			if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
				prev.SetCounter(env.Epoch, prev.Priority)
				n, i := env.Tasks.Link(prev)
				env.Tasks.Nodes().MoveBack(&s.lists[prev.QIndex], n, i)
				res.Cycles += env.Cost.MoveRunqueue
			}
		} else if prev.OnRunqueue() {
			// The previous task blocked or exited: drop the
			// "on the run queue" illusion.
			s.DelFromRunqueue(prev)
			res.Cycles += env.Cost.DelRunqueue
		}
	}

	// Recalculation decision (paper §5.2): top == "zero" means no
	// selectable task with quantum left. If next_top is set there are
	// parked exhausted tasks — recalculate every counter in the system
	// and merge the parked sections (O(lists), thanks to the
	// predicted-counter pre-indexing). If next_top is also "zero" the
	// table is empty and the idle task runs, with no recalculation.
	//
	// A yielding task that still has quantum never reaches this path:
	// it was re-inserted above, so top is set and the search below will
	// re-run it — the paper's deliberate deviation that avoids the
	// stock scheduler's yield-triggered recalculation storm (Figure 2).
	if s.top < 0 {
		if s.nextTop < 0 {
			if yieldedPrev {
				prev.Yielded = false
			}
			return res // idle
		}
		env.Epoch.Bump()
		res.Recalcs++
		res.Cycles += uint64(env.NTasks()) * env.Cost.RecalcPerTask
		for i := 0; i < s.size; i++ {
			s.nz[i] += s.z[i]
			s.z[i] = 0
		}
		s.top = s.nextTop
		s.nextTop = -1
	}

	limit := s.searchLimit()
	var chosen *task.Task
	for idx := s.top; idx >= 0; idx-- {
		if s.nz[idx] == 0 {
			continue
		}
		if idx >= s.rtLo {
			chosen = s.searchRT(idx, cpu, limit, &res)
		} else {
			chosen = s.searchOther(idx, cpu, prev, yieldedPrev, limit, &res)
		}
		if chosen != nil {
			break
		}
		// Everything in this list was running on other CPUs (SMP
		// only): "we consider the next populated list and try again."
	}

	if chosen != nil {
		// Manual dequeue: pull the task out of its list but leave
		// run_list.next set so the rest of the kernel still sees it
		// "on the run queue" (footnote 3).
		s.unlink(chosen)
		res.Cycles += env.Cost.DelRunqueue
		res.Next = chosen
	}
	// "If the previous task had yielded the processor, then the ELSC
	// scheduler clears the SCHED_YIELD bit to give the task a better
	// chance in future calls to schedule()."
	if yieldedPrev {
		prev.Yielded = false
	}
	return res
}

// searchOther scans one SCHED_OTHER list for the best candidate,
// implementing the paper's search loop: skip tasks running on other CPUs,
// stop at the zero-counter section, defer a yielded previous task, award
// the goodness bonuses, and cut the scan at limit tasks. On uniprocessor
// builds a memory-map match ends the search immediately.
func (s *Sched) searchOther(idx, cpu int, prev *task.Task, yieldedPrev bool, limit int, res *sched.Result) *task.Task {
	env := s.env
	var best, yieldFallback *task.Task
	bestG := -1
	count := 0
	upShortcut := !env.SMP && !s.cfg.DisableUPShortcut

	for t := env.Tasks.First(&s.lists[idx]); t != nil && count < limit; t = env.Tasks.Next(t) {
		count++
		res.Examined++
		if (t.HasCPU && t.Processor != cpu) || !t.AllowedOn(cpu) {
			// Still executing on another CPU, or pinned elsewhere;
			// not schedulable here.
			res.Cycles += env.Cost.Touch(env.NCPU)
			continue
		}
		if s.inZeroSection(t) {
			// "The rest of the list is either empty or unusable."
			res.Cycles += env.Cost.Touch(env.NCPU)
			break
		}
		if t == prev && yieldedPrev {
			// "We will run it only if we cannot find another task
			// on the list."
			res.Cycles += env.Cost.Touch(env.NCPU)
			yieldFallback = t
			continue
		}
		res.Cycles += env.Cost.Evaluate(env.NCPU)
		w := sched.Goodness(env.Epoch, t, cpu, prev.MM)
		if upShortcut && prev.MM != nil && t.MM == prev.MM {
			// Uniprocessor shortcut: no later task in this list can
			// collect a larger bonus, so run this one right away.
			best, bestG = t, w
			break
		}
		if w > bestG {
			best, bestG = t, w
		}
	}

	if best == nil {
		best = yieldFallback
	}
	return best
}

// searchRT scans a real-time list: "we examine only the first few tasks
// and don't look at those currently running on other processors ... we
// simply run the task with the highest rt_priority value."
func (s *Sched) searchRT(idx, cpu, limit int, res *sched.Result) *task.Task {
	env := s.env
	var best *task.Task
	count := 0
	for t := env.Tasks.First(&s.lists[idx]); t != nil && count < limit; t = env.Tasks.Next(t) {
		count++
		res.Examined++
		res.Cycles += env.Cost.Touch(env.NCPU)
		if (t.HasCPU && t.Processor != cpu) || !t.AllowedOn(cpu) {
			continue
		}
		if best == nil || t.RTPriority > best.RTPriority {
			best = t
		}
	}
	return best
}
