// Package vanilla implements the stock Linux 2.3.99-pre4 scheduler that the
// paper uses as its baseline ("reg" in the figures): a single, unsorted,
// circular doubly linked run queue that schedule() walks in full on every
// invocation, recomputing goodness() for every runnable task (paper §3).
//
// The expensive properties the paper attributes to it are reproduced
// faithfully:
//
//   - O(n) scan: every task on the run queue not running on another CPU is
//     examined on every call.
//   - Redundant work: goodness() is recomputed from scratch each time.
//   - The recalculation loop: when the best goodness found is exactly zero
//     (all runnable tasks exhausted their quantum, or a yielding task is
//     the only candidate), the scheduler recalculates the counter of every
//     task in the system and rescans.
//   - Tie-breaking by queue position: the task closer to the front wins
//     equal goodness, and newly woken tasks are pushed on the front.
//
// # What is simulated, and what the host does
//
// The simulated machine pays for the whole walk: every call's Examined is
// the queue length, and its Cycles are a Touch per queued task plus a
// goodness() per task the list walk would score — every one it does not
// skip. The host does not repeat that walk. Goodness is static goodness
// (counter + priority, 0 for a spent counter) plus at most MMBonus +
// AffinityBonus = 16 points, so a task whose static goodness is more than
// 16 below the best goodness already found can neither win nor tie.
// Schedule therefore keeps the waiting tasks filed by static goodness in a
// sched.LevelArray and scores them best level first, stopping at the first
// level that cannot reach the best found so far — on a 4P chat load about
// 6 of the 44 queued tasks. ELSC's table (§5) rests on the same bound but
// uses it to approximate; here it is exact. Queue position is a stamp
// (QStamp), so "front of the list wins ties" is the pair (goodness
// descending, stamp ascending). The list walk itself lives on in the
// package's tests as the oracle that FuzzRegIndex holds every decision,
// charge, recalculation and counter sync of this one to.
package vanilla

import (
	"cmp"
	"slices"

	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

const (
	// maxStatic is the highest static goodness a SCHED_OTHER task can
	// have: a full counter (twice its priority) plus the priority.
	maxStatic = 3 * task.MaxPriority

	// otherLevels is the number of SCHED_OTHER levels: two static values
	// per level, so the index fits the bitmap of o1's 140 levels, and the
	// last level holds static goodness 0 alone.
	otherLevels = maxStatic/2 + 1
)

// The queued tasks outside the index, by the list that holds them; such a
// task's QIndex is -1 minus the list.
const (
	// pinnedList: tasks the index cannot bound — an affinity mask makes
	// can_schedule differ per CPU, or a counter is past its cap. Schedule
	// scores every one of them.
	pinnedList = iota
	// runningList: tasks marked HasCPU. The stock scheduler keeps them
	// queued; here they are out of the index walk's way.
	runningList
	// stoppedList: tasks that stopped running since the last Schedule.
	// Their counter ran down, and kernel.requeue may have changed their
	// priority, class or mask in place, so Schedule re-files them first.
	stoppedList
	sideLists
)

// ceiling is, per level, the most goodness any task filed there can score:
// the real-time value itself, the level's top static value plus both
// bonuses, or 0 for spent counters.
var ceiling = func() (c [sched.RTLevels + otherLevels]int) {
	for lvl := range c {
		switch top := maxStatic - 2*(lvl-sched.RTLevels); {
		case lvl < sched.RTLevels:
			c[lvl] = sched.RTBase + task.MaxRTPriority - lvl
		case top > 0:
			c[lvl] = top + sched.MMBonus + sched.AffinityBonus
		}
	}
	return
}()

// Sched is the stock scheduler. Create with New.
type Sched struct {
	env *sched.Env
	// idx files every waiting task with no affinity mask by static
	// goodness; levels is the storage of its SCHED_OTHER levels.
	idx    sched.LevelArray
	levels [otherLevels]klist.Head
	// side holds the queued tasks outside the index, one list of each
	// kind above.
	side [sideLists]klist.Head
	// front and back are the next list-position stamps: a wake-up takes
	// one below every queued task, an expired SCHED_RR prev one above.
	front, back uint64
	// recharged is rekey's scratch.
	recharged []*task.Task
}

// New returns a stock scheduler bound to env.
func New(env *sched.Env) *Sched {
	s := &Sched{env: env, front: 1 << 63, back: 1 << 63}
	s.idx.Init(&env.Tasks, s.levels[:])
	return s
}

// Name implements sched.Scheduler. "reg" is the label the paper's figures
// use for the regular scheduler.
func (s *Sched) Name() string { return "reg" }

// Visibility implements sched.Scheduler: every CPU selects from the one
// run-queue list.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleAll }

// AddToRunqueue adds t at the front of the run queue, as add_to_runqueue
// does for newly created or awakened tasks (paper §3.2).
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("vanilla: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	t.SyncCounter(s.env.Epoch)
	s.front--
	t.QStamp = s.front
	if t.HasCPU {
		s.push(t, runningList)
	} else {
		s.file(t)
	}
}

// file links unlinked, waiting task t at the index level of its static
// goodness, or on the pinned list. It syncs an indexed SCHED_OTHER task's
// counter, which the list walk does on its next pass too.
func (s *Sched) file(t *task.Task) {
	if t.CPUsAllowed == 0 {
		if lvl := level(s.env.Epoch, t); lvl >= 0 {
			t.QIndex = lvl
			s.idx.Push(t, lvl, true)
			return
		}
	}
	s.push(t, pinnedList)
}

// push links unlinked task t on side list l.
func (s *Sched) push(t *task.Task, l int) {
	t.QIndex = -1 - l
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().PushFront(&s.side[l], n, i)
}

// level returns t's index level — rt_priority 99 first, then static
// goodness maxStatic down to 0, two values a level — or -1 past the cap.
func level(ep *task.Epoch, t *task.Task) int {
	if t.RealTime() {
		return task.MaxRTPriority - t.RTPriority
	}
	static := 0
	if c := t.Counter(ep); c != 0 {
		static = c + t.Priority
	}
	if static > maxStatic {
		return -1
	}
	return sched.RTLevels + (maxStatic-static)/2
}

// unlink takes queued task t out of whichever list holds it.
func (s *Sched) unlink(t *task.Task) {
	if q := t.QIndex; q < 0 {
		n, i := s.env.Tasks.Link(t)
		s.env.Tasks.Nodes().Remove(&s.side[-1-q], n, i)
	} else {
		s.idx.Remove(t, q)
	}
}

// DelFromRunqueue unlinks t.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if t.OnRunqueue() {
		s.unlink(t)
	}
}

// queued returns the run queue's length.
func (s *Sched) queued() int {
	return s.idx.Len() + s.side[pinnedList].Len() + s.side[runningList].Len() + s.side[stoppedList].Len()
}

// Runnable returns the number of queued tasks not currently executing.
func (s *Sched) Runnable() int { return s.queued() - s.side[runningList].Len() }

// Drain implements sched.Scheduler: the one queue, front to back. The
// kernel detaches HasCPU tasks before it drains for a successor (the stock
// scheduler is the one policy that keeps them queued), so everything left
// is selectable.
func (s *Sched) Drain(_ int, out []*task.Task) []*task.Task {
	start := len(out)
	for i := range s.side {
		l := &s.side[i]
		for t := s.env.Tasks.First(l); t != nil; t = s.env.Tasks.First(l) {
			n, slot := s.env.Tasks.Link(t)
			s.env.Tasks.Nodes().Remove(l, n, slot)
			out = append(out, t)
		}
	}
	out = s.idx.Drain(out)
	slices.SortFunc(out[start:], func(a, b *task.Task) int { return cmp.Compare(a.QStamp, b.QStamp) })
	return out
}

// NoteRunning must be called by the kernel when it flips t.HasCPU while t
// is on the run queue. The stock scheduler keeps running tasks on the
// queue, unlike ELSC; here they wait on their own list, out of the walk's
// way, and a task that stops running is re-filed by the next Schedule.
func (s *Sched) NoteRunning(t *task.Task, running bool) {
	if !t.OnRunqueue() {
		return
	}
	s.unlink(t)
	if running {
		s.push(t, runningList)
	} else {
		s.push(t, stoppedList)
	}
}

// Schedule implements the heart of 2.3.99-pre4 schedule(): evaluate the
// goodness of every runnable task and pick the best (paper §3.3.2). prev
// is the CPU's running task or its idle placeholder.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}

	if !prev.IsIdle {
		// Round-robin expiry: reset the quantum and send the task to
		// the back of the queue (move_last_runqueue), where it loses
		// goodness ties, before scanning.
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
			if prev.OnRunqueue() {
				s.back++
				prev.QStamp = s.back
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
	stopped := &s.side[stoppedList]
	for t := env.Tasks.First(stopped); t != nil; t = env.Tasks.First(stopped) {
		n, i := env.Tasks.Link(t)
		env.Tasks.Nodes().Remove(stopped, n, i)
		s.file(t)
	}

	yieldConsulted := false
	for {
		best, c, skipped := s.pick(cpu, prev, &yieldConsulted)
		// The simulated walk: every queued task touched, every one not
		// skipped scored.
		n := s.queued()
		res.Examined += n
		res.Cycles += uint64(n)*env.Cost.Touch(env.NCPU) + uint64(n-skipped)*env.Cost.GoodnessCost

		if c == 0 {
			// Every candidate's quantum is spent (or the lone
			// candidate yielded): recalculate the counter of every
			// task in the system and search again (paper §3.3.2).
			env.Epoch.Bump()
			s.rekey()
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

// pick is one pass of the list walk: the best goodness c on the queue for
// cpu (-1000, the kernel's initial weight, if nothing is selectable), the
// task that scores it nearest the front, and how many queued tasks the
// walk skips unscored — running elsewhere, excluded by their mask, or the
// yielding prev. Only the tasks that can reach c are scored.
func (s *Sched) pick(cpu int, prev *task.Task, yieldConsulted *bool) (best *task.Task, c, skipped int) {
	ep, tasks := s.env.Epoch, &s.env.Tasks
	c = -1000
	var stamp uint64
	skipped = s.side[runningList].Len()
	if prev.OnRunqueue() {
		if prev.HasCPU {
			skipped-- // prev is not running elsewhere
		}
		switch {
		case !prev.AllowedOn(cpu):
			// kernel.requeue changes a running task's mask in place.
			skipped++
		case prev.Yielded && !*yieldConsulted:
			// sys_sched_yield: the yielding task is offered with
			// goodness zero; the bit is cleared now so a rescan after
			// recalculation treats it normally.
			prev.Yielded, *yieldConsulted = false, true
			skipped++
			best, c, stamp = prev, 0, prev.QStamp
		default:
			best, c, stamp = prev, sched.Goodness(ep, prev, cpu, prev.MM), prev.QStamp
		}
	}
	for t := tasks.First(&s.side[pinnedList]); t != nil; t = tasks.Next(t) {
		if t == prev {
			continue
		}
		if !t.AllowedOn(cpu) {
			skipped++
			continue
		}
		if w := sched.Goodness(ep, t, cpu, prev.MM); w > c || w == c && t.QStamp < stamp {
			best, c, stamp = t, w, t.QStamp
		}
	}
	for lvl := s.idx.Next(0); lvl >= 0 && ceiling[lvl] >= c; lvl = s.idx.Next(lvl + 1) {
		// Every indexed task's counter is synced, so its goodness is
		// known without a call to sched.Goodness: a real-time level's is
		// its ceiling, the spent level's 0, and anywhere else the task is
		// SCHED_OTHER with quantum left.
		other := lvl >= sched.RTLevels && ceiling[lvl] > 0
		for t := s.idx.First(lvl); t != nil; t = tasks.Next(t) {
			if t == prev {
				continue
			}
			w := ceiling[lvl]
			if other {
				w = t.Counter(ep) + t.Priority + sched.Bonus(t, cpu, prev.MM)
			}
			if w > c || w == c && t.QStamp < stamp {
				best, c, stamp = t, w, t.QStamp
			}
		}
	}
	return best, c, skipped
}

// rekey re-files every indexed SCHED_OTHER task after a recalculation —
// the waiting tasks the list walk's rescan syncs.
func (s *Sched) rekey() {
	for lvl := s.idx.Next(sched.RTLevels); lvl >= 0; lvl = s.idx.Next(lvl + 1) {
		for t := s.idx.First(lvl); t != nil; t = s.env.Tasks.Next(t) {
			s.recharged = append(s.recharged, t)
		}
	}
	for _, t := range s.recharged {
		s.idx.Remove(t, t.QIndex)
		s.file(t)
	}
	s.recharged = s.recharged[:0]
}
