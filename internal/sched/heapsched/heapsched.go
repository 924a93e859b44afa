// Package heapsched implements the first alternative design from the
// paper's future work (§8): "sorting tasks by static goodness within heaps
// for each processor and address space. One could choose the absolute best
// task available simply by examining the top of each heap."
//
// Tasks are filed into one max-heap per processor (by the CPU they last
// ran on, so the affinity bonus is homogeneous within a heap) plus one
// heap for never-run tasks. schedule() computes the full goodness of each
// heap's top — at most NCPU+2 candidates — and picks the best, so unlike
// ELSC it never misses a bonus-heavy task hiding below the top static
// class.
//
// The design also demonstrates the cost the ELSC authors avoided by
// choosing a table: heap insertion and removal are O(log n), and the
// counter recalculation changes every key, forcing an O(n) re-heapify —
// exactly the "overhead of sorting" and "complexity when inserting or
// removing tasks" §5 warns about. The ablation benchmarks quantify it.
package heapsched

import (
	"elsc/internal/sched"
	"elsc/internal/task"
)

// Sched is the heap-based scheduler. Create with New.
type Sched struct {
	env *sched.Env
	// heaps[cpu] holds tasks whose last run was on cpu; heaps[ncpu]
	// holds tasks that have never run.
	heaps []heap
	seq   uint64
	total int
}

// New returns a heap scheduler bound to env.
func New(env *sched.Env) *Sched {
	s := &Sched{env: env}
	s.heaps = make([]heap, env.NCPU+1)
	return s
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "heap" }

// Visibility implements sched.Scheduler: every CPU selects from the
// shared heaps.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleAll }

// key orders the heaps: real-time tasks above everything, exhausted tasks
// at the bottom (they are not selectable until recalculation), and
// everything else by static goodness.
func key(ep *task.Epoch, t *task.Task) int {
	if t.RealTime() {
		return sched.RTBase + t.RTPriority
	}
	c := t.Counter(ep)
	if c == 0 {
		return 0
	}
	return c + t.Priority
}

// heapOf returns the heap index for t.
func (s *Sched) heapOf(t *task.Task) int {
	if !t.EverRan {
		return s.env.NCPU
	}
	return t.Processor
}

// AddToRunqueue files t into its processor's heap. A heap is not a list,
// so the task is marked queued the way ELSC marks a running one (footnote
// 3): run_list.next set, linked nowhere.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("heapsched: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	s.seq++
	s.push(t, s.seq)
}

// push files t under arrival number seq; equal keys pop in seq order.
func (s *Sched) push(t *task.Task, seq uint64) {
	t.RunList.MarkQueued()
	h := s.heapOf(t)
	s.heaps[h].push(entry{t: t, key: key(s.env.Epoch, t), seq: seq}, h)
	s.total++
}

// DelFromRunqueue removes t from whichever heap holds it.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	s.heaps[t.QStamp].removeAt(t.QIndex)
	t.RunList.ResetDangling()
	s.total--
}

// Runnable returns the number of queued tasks.
func (s *Sched) Runnable() int { return s.total }

// Drain implements sched.Scheduler: heap 0..NCPU (per-CPU affinity heaps
// then the never-ran heap), each popped root first — i.e. per heap in
// (key desc, seq asc) priority order. The heaps are one queue: Schedule
// scans every top from any CPU, so tasks keyed to an offlined CPU's heap
// stay reachable.
func (s *Sched) Drain(_ int, out []*task.Task) []*task.Task {
	for h := range s.heaps {
		for {
			e, ok := s.heaps[h].peek()
			if !ok {
				break
			}
			s.DelFromRunqueue(e.t)
			out = append(out, e.t)
		}
	}
	return out
}

// Schedule picks the best of the heap tops.
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
			// A real-time prev still in its quantum has not arrived
			// again: it stays ahead of its equals (FIFO runs until it
			// blocks). One whose round-robin quantum expired is the
			// latest arrival, like any SCHED_OTHER prev.
			seq := uint64(0)
			if !prev.RealTime() || rrExpired {
				s.seq++
				seq = s.seq
			}
			s.push(prev, seq)
			res.Cycles += env.Cost.AddRunqueue + s.logCost()
		}
	}

	for attempt := 0; ; attempt++ {
		best := (*task.Task)(nil)
		bestG, bestSeq := -1, uint64(0)
		allExhausted := s.total > 0
		sawBusy := false
		for h := range s.heaps {
			e, ok := s.heaps[h].peek()
			if !ok {
				continue
			}
			res.Examined++
			res.Cycles += env.Cost.Evaluate(env.NCPU)
			t := e.t
			if (t.HasCPU && t.Processor != cpu) || !t.AllowedOn(cpu) {
				// A top running elsewhere (or pinned elsewhere)
				// hides its heap's second element — a structural
				// blind spot of this design.
				sawBusy = true
				continue
			}
			g := sched.Goodness(env.Epoch, t, cpu, prev.MM)
			if g > 0 {
				allExhausted = false
			} else {
				continue // exhausted: not selectable until recalculation
			}
			if t == prev && yielded {
				continue // offer the yielder only as a last resort
			}
			// Real-time tops tie whenever their rt_priority does (no
			// bonus applies to them). The earlier arrival wins, in
			// whichever heap it waits, so a round-robin task re-filed
			// on expiry — the latest arrival — is behind its equals.
			if g > bestG || g == bestG && t.RealTime() && e.seq < bestSeq {
				bestG, bestSeq = g, e.seq
				best = t
			}
		}
		if best == nil && allExhausted && !sawBusy && attempt == 0 {
			// Every top is exhausted: recalculate and re-heapify.
			env.Epoch.Bump()
			res.Recalcs++
			res.Cycles += uint64(env.NTasks())*env.Cost.RecalcPerTask + s.reheapify()
			continue
		}
		if best == nil && yielded && prev.Runnable() && prev.OnRunqueue() {
			best = prev
		}
		if best != nil {
			s.DelFromRunqueue(best)
			res.Cycles += env.Cost.DelRunqueue + s.logCost()
			res.Next = best
		}
		return res
	}
}

// logCost approximates the O(log n) sift cost of one heap operation.
func (s *Sched) logCost() uint64 {
	cost := uint64(0)
	for n := s.total; n > 1; n >>= 1 {
		cost += 35
	}
	return cost
}

// reheapify rebuilds every heap after a recalculation changed all keys,
// returning its simulated cycle cost — the structural weakness of the
// heap design.
func (s *Sched) reheapify() uint64 {
	var cost uint64
	for h := range s.heaps {
		for i := range s.heaps[h].es {
			e := &s.heaps[h].es[i]
			e.key = key(s.env.Epoch, e.t)
			cost += 40
		}
		s.heaps[h].rebuild(h)
	}
	return cost
}

// entry is one heap element.
type entry struct {
	t   *task.Task
	key int
	seq uint64
}

// heap is a max-heap of entries ordered by (key desc, seq asc). The held
// task's QIndex stores its position and QStamp the heap id.
type heap struct {
	es []entry
}

func (h *heap) less(i, j int) bool {
	if h.es[i].key != h.es[j].key {
		return h.es[i].key > h.es[j].key
	}
	return h.es[i].seq < h.es[j].seq
}

func (h *heap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].t.QIndex = i
	h.es[j].t.QIndex = j
}

func (h *heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heap) down(i int) {
	n := len(h.es)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *heap) push(e entry, id int) {
	e.t.QIndex = len(h.es)
	e.t.QStamp = uint64(id)
	h.es = append(h.es, e)
	h.up(len(h.es) - 1)
}

func (h *heap) peek() (entry, bool) {
	if len(h.es) == 0 {
		return entry{}, false
	}
	return h.es[0], true
}

func (h *heap) removeAt(i int) {
	n := len(h.es) - 1
	if i < 0 || i > n {
		panic("heapsched: removeAt out of range")
	}
	h.swap(i, n)
	h.es = h.es[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
}

func (h *heap) rebuild(id int) {
	for i := range h.es {
		h.es[i].t.QIndex = i
		h.es[i].t.QStamp = uint64(id)
	}
	for i := len(h.es)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
