// Package cfs implements a weighted-vruntime fair scheduler — the modern
// counter-argument to the paper's O(1) lineage, in the shape Linux took
// from 2.6.23 on (CFS). It joins the registry as a drop-in policy so the
// conformance, latency-invariant, and matrix machinery can stage a
// genuine O(1)-vs-fair shootout.
//
// The design maps the task layer's static Priority (1..40, default 20)
// onto the CFS weight table: Priority 20 is nice 0 and weight 1024, and
// each priority step multiplies the weight by ~1.25, so a task with
// double the weight of another receives double the CPU time. Every
// processor owns a private queue (the kernel reads the VisibleOwner
// declaration and splits the run-queue lock) holding an indexed binary
// min-heap of SCHED_OTHER tasks ordered by virtual runtime — no
// container/heap boxing, zero allocations in steady state — plus a small
// priority array for real-time tasks, which always outrank fair ones.
//
// A task's vruntime advances by executed-cycles x 1024/weight whenever
// it comes back through Schedule, so heavier tasks age slower and
// naturally earn proportionally more CPU. Each queue tracks a monotone
// min_vruntime; a waking or newly forked task is clamped to
// max(vruntime, min_vruntime - sleeperBonus), so sleepers get a bounded
// boost ahead of the queue instead of the sleep_avg estimator's
// heuristic credit, and a task returning from a policy swap cannot
// carry a stale virtual clock into the queue. Timeslices are dynamic:
// periodTicks of latency target split by weight share, floored at a
// granularity, delivered through the task counter so the kernel's
// ordinary quantum-expiry machinery ends the slice.
//
// Balancing is the shared per-CPU-queue substrate's (sched.Balancer; see
// the sched package doc), at its default thresholds. What is cfs's own is
// which task a victim gives up — its best real-time task, then its
// greatest-lag (minimum-vruntime) fair one: the task the victim owes the
// most CPU, so moving it helps fairness machine-wide, not just throughput
// — and that a migrating task's vruntime is renormalized from the victim
// queue's min_vruntime to the thief's, so cross-queue clock skew never
// turns into a fairness bug.
package cfs

import (
	"elsc/internal/sched"
	"elsc/internal/task"
)

const (
	// weightScale is the weight of a Priority-20 (nice-0) task; vruntime
	// is measured in "nice-0 cycles": executed cycles x weightScale/weight.
	weightScale = 1024

	// periodTicks is the scheduling latency target in 10ms ticks: the
	// horizon every queued fair task should run once within, split by
	// weight share. minGranTicks floors the split so a crowded queue
	// degrades to round-robin at a sane quantum instead of thrashing.
	periodTicks  = 20
	minGranTicks = 2

	// tickCycles is one timer tick in simulated cycles, the kernel's own
	// period. It scales the two vruntime-denominated constants.
	tickCycles   = sched.TickCycles
	sleeperBonus = periodTicks * tickCycles // placement clamp: one latency period
	wakeGran     = tickCycles / 8           // wakeup/tick preemption hysteresis
)

// weightOf maps a static priority onto the CFS prio_to_weight table:
// Priority 20 = nice 0 = 1024, each step up multiplies by ~1.25 (so
// Priority 23 has ~2x the weight of 20, and 28 ~6x). Index 0 is
// Priority 40 (nice -20).
var prioToWeight = [task.MaxPriority]uint64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// Weight returns the CFS weight for a static priority, clamping
// out-of-range values to the table ends.
func Weight(prio int) uint64 {
	idx := task.MaxPriority - prio
	if idx < 0 {
		idx = 0
	}
	if idx >= len(prioToWeight) {
		idx = len(prioToWeight) - 1
	}
	return prioToWeight[idx]
}

// fentry is one fair-heap element. The enqueue-time key is copied into
// the entry so removal subtracts exactly the weight it added even if the
// task's priority mutated while queued (the kernel always del/adds
// around mutations, but the bookkeeping must not depend on it).
type fentry struct {
	t      *task.Task
	vr     uint64
	order  int64
	weight uint64
}

// fheap is an indexed binary min-heap of fair tasks ordered by
// (vruntime asc, order asc). The held task's QStamp stores its position;
// swaps update it in place, so removal never searches. A heap is not a
// list, so a held task is marked queued the way ELSC marks a running one
// (footnote 3: run_list.next set, linked nowhere), which is also what
// tells it from a real-time task, linked in its level's list.
type fheap struct {
	es []fentry
}

func (h *fheap) len() int { return len(h.es) }

func (h *fheap) less(i, j int) bool {
	if h.es[i].vr != h.es[j].vr {
		return h.es[i].vr < h.es[j].vr
	}
	return h.es[i].order < h.es[j].order
}

func (h *fheap) swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].t.QStamp = uint64(i)
	h.es[j].t.QStamp = uint64(j)
}

func (h *fheap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *fheap) down(i int) {
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

func (h *fheap) push(e fentry) {
	e.t.QStamp = uint64(len(h.es))
	h.es = append(h.es, e)
	h.up(len(h.es) - 1)
}

func (h *fheap) removeAt(i int) fentry {
	n := len(h.es) - 1
	if i < 0 || i > n {
		panic("cfs: heap removeAt out of range")
	}
	h.swap(i, n)
	e := h.es[n]
	h.es[n] = fentry{}
	h.es = h.es[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
	return e
}

func rtLevelOf(t *task.Task) int { return task.MaxRTPriority - t.RTPriority }

// runqueue is one CPU's fair heap plus real-time array — one FIFO list per
// rt_priority level under a find-first-set bitmap, the o1 idiom, without
// lists until a real-time task arrives. minVR is the
// monotone virtual clock the sleeper clamp and migration renorm anchor
// to; maxVR is the high-watermark a yielding task is sent behind;
// weight sums the queued fair entries' weights for slice computation.
type runqueue struct {
	fair  fheap
	rt    sched.LevelArray
	minVR uint64
	maxVR uint64

	weight uint64

	// order tie-break counters: a stolen task about to be dispatched gets
	// an ever-smaller front order, every other enqueue an ever-larger
	// back order.
	frontSeq int64
	backSeq  int64

	// curr is the fair task this queue last dispatched and currBase its
	// executed-cycle odometer at dispatch; the next Schedule on this CPU
	// settles the difference into the task's vruntime.
	curr     *task.Task
	currBase uint64
}

// Sched is the weighted-vruntime fair scheduler. Create with New.
type Sched struct {
	env *sched.Env
	rqs []runqueue

	// bal holds the queue lengths (the two enqueues and DelFromRunqueue
	// bump them) and runs the idle steal and the periodic pull over them.
	bal sched.Balancer
}

// New returns a fair scheduler bound to env.
func New(env *sched.Env) *Sched {
	s := &Sched{env: env, rqs: make([]runqueue, env.NCPU)}
	s.bal = sched.NewBalancer(env, env.Topo, s.stealCandidate, s.pulled)
	for i := range s.rqs {
		s.rqs[i].rt.Init(&env.Tasks, nil)
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "cfs" }

// Visibility implements sched.Scheduler: a queued task waits on CPU
// QIndex's private queue, under that queue's own lock.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleOwner }

// DomainSteals and PerCPUSteals implement sched.StealReporter with the
// balancer's counters.
func (s *Sched) DomainSteals() (intra, cross uint64) { return s.bal.DomainSteals() }
func (s *Sched) PerCPUSteals() []sched.CPUSteals     { return s.bal.PerCPUSteals() }

// placeClamp applies the new-task/wake placement rule: a task whose
// virtual clock lags the queue (a long sleeper, a fresh fork, a survivor
// of a policy swap whose vruntime era is stale) is pulled up to
// min_vruntime minus one latency period — a bounded boost, never an
// unbounded head start — while a task ahead of the queue keeps its own
// clock and waits its turn.
func (s *Sched) placeClamp(t *task.Task, rq *runqueue) {
	floor := uint64(0)
	if rq.minVR > sleeperBonus {
		floor = rq.minVR - sleeperBonus
	}
	if t.VRuntime < floor {
		t.VRuntime = floor
	}
}

// enqueueFair files a fair task on cpu's queue. front biases the order
// tie-break ahead of every queued equal; ordinary enqueues go behind their
// equals, preserving FIFO among exact ties.
func (s *Sched) enqueueFair(t *task.Task, cpu int, front bool) {
	rq := &s.rqs[cpu]
	var order int64
	if front {
		rq.frontSeq--
		order = rq.frontSeq
	} else {
		rq.backSeq++
		order = rq.backSeq
	}
	w := Weight(t.Priority)
	rq.fair.push(fentry{t: t, vr: t.VRuntime, order: order, weight: w})
	rq.weight += w
	if t.VRuntime > rq.maxVR {
		rq.maxVR = t.VRuntime
	}
	t.RunList.MarkQueued()
	t.QIndex = cpu
	s.bal.Len[cpu]++
}

// enqueueRT files a real-time task at its rt_priority level on cpu.
func (s *Sched) enqueueRT(t *task.Task, cpu int, front bool) {
	lvl := rtLevelOf(t)
	s.rqs[cpu].rt.Push(t, lvl, front)
	t.QIndex = cpu
	t.QStamp = uint64(lvl)
	s.bal.Len[cpu]++
}

// AddToRunqueue files a newly runnable task on its home CPU's queue,
// applying the sleeper clamp to fair tasks. A task Home re-homes away
// from its last CPU (offline, affinity change) is renormalized to the
// new queue's clock first — placeClamp only bounds the lagging side, so
// without the rebase a vruntime earned on a fast-clock queue would park
// the task far ahead of the new queue.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("cfs: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	cpu := s.bal.Len.Home(s.env, t)
	if t.RealTime() {
		s.enqueueRT(t, cpu, true)
		return
	}
	if t.EverRan && t.Processor < len(s.rqs) && cpu != t.Processor {
		s.renorm(t, s.homeVR(t), &s.rqs[cpu])
	}
	s.placeClamp(t, &s.rqs[cpu])
	s.enqueueFair(t, cpu, false)
}

// PlaceWake accepts the kernel's SD_WAKE_IDLE hint: file the woken task
// directly on the given idle CPU's queue, inside the waker's cache
// domain, instead of behind its home CPU's backlog.
func (s *Sched) PlaceWake(t *task.Task, cpu int) bool {
	if t.IsIdle || cpu < 0 || cpu >= len(s.rqs) || !t.AllowedOn(cpu) || !s.env.CPUOnline(cpu) {
		return false
	}
	if t.OnRunqueue() {
		return false
	}
	if t.RealTime() {
		s.enqueueRT(t, cpu, true)
		return true
	}
	s.renorm(t, s.homeVR(t), &s.rqs[cpu])
	s.placeClamp(t, &s.rqs[cpu])
	s.enqueueFair(t, cpu, false)
	return true
}

// homeVR returns the min_vruntime of the queue t's clock is relative to:
// its last CPU's queue when valid, else zero (the clamp bounds the rest).
func (s *Sched) homeVR(t *task.Task) uint64 {
	if t.EverRan && t.Processor < len(s.rqs) {
		return s.rqs[t.Processor].minVR
	}
	return 0
}

// renorm rebases a migrating task's vruntime from one queue's virtual
// clock to another's, preserving its lag: per-queue clocks advance at
// different rates, so raw vruntimes are not comparable across queues.
func (s *Sched) renorm(t *task.Task, fromMin uint64, to *runqueue) {
	lag := int64(t.VRuntime) - int64(fromMin)
	nv := int64(to.minVR) + lag
	if nv < 0 {
		nv = 0
	}
	t.VRuntime = uint64(nv)
}

// DelFromRunqueue removes t from whichever structure holds it. A task in
// an rt list is physically linked (RunList); a fair task lives in the
// heap at index QStamp.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	rq := &s.rqs[t.QIndex]
	if t.RunList.InListProper() {
		rq.rt.Remove(t, int(t.QStamp))
	} else {
		e := rq.fair.removeAt(int(t.QStamp))
		rq.weight -= e.weight
		t.RunList.ResetDangling()
	}
	s.bal.Len[t.QIndex]--
}

// Runnable returns the number of queued tasks; running tasks are
// dequeued while they execute.
func (s *Sched) Runnable() int { return s.bal.Len.Total() }

// sliceFor computes the dispatched task's timeslice in ticks: its weight
// share of the latency period against the tasks still queued on rq,
// floored at the granularity. A lone task gets the whole period.
func (s *Sched) sliceFor(t *task.Task, rq *runqueue) int {
	w := Weight(t.Priority)
	total := rq.weight + w
	slice := int(periodTicks * w / total)
	if slice < minGranTicks {
		slice = minGranTicks
	}
	return slice
}

// advance settles prev's executed cycles into its vruntime, if prev is
// the fair task this queue dispatched: vruntime += executed x 1024/weight.
func (rq *runqueue) advance(prev *task.Task) {
	if rq.curr != prev || prev.IsIdle {
		return
	}
	rq.curr = nil
	exec := prev.UserCycles + prev.SystemCycles - rq.currBase
	if exec == 0 {
		return
	}
	prev.VRuntime += exec * weightScale / Weight(prev.Priority)
}

// logCost approximates the O(log n) sift cost of one heap operation on
// cpu's fair heap.
func (s *Sched) logCost(cpu int) uint64 {
	cost := uint64(0)
	for n := s.rqs[cpu].fair.len(); n > 1; n >>= 1 {
		cost += 35
	}
	return cost
}

// Schedule implements the fair pick: settle the previous task's
// vruntime, requeue it if still runnable, then run the lowest-vruntime
// fair task — unless a real-time task is queued, which always wins.
// Recalcs is always zero: there is no global recalculation in this
// design, quantum refill happens per-dispatch via the slice.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}
	rq := &s.rqs[cpu]
	rq.advance(prev)

	if !prev.IsIdle {
		yielded := prev.Yielded
		prev.Yielded = false
		rrExpired := false
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
			rrExpired = true
		}
		if prev.Runnable() && !prev.OnRunqueue() {
			home := s.bal.Len.Home(env, prev)
			hrq := &s.rqs[home]
			switch {
			case prev.RealTime():
				// Preempted RT keeps the head of its level; a yielding
				// or RR-rotated one goes behind its level peers.
				s.enqueueRT(prev, home, !(yielded || rrExpired))
			case yielded:
				// sched_yield: park behind the queue's vruntime
				// high-watermark so every queued task runs first.
				if home != cpu {
					s.renorm(prev, rq.minVR, hrq)
				}
				if hrq.maxVR > prev.VRuntime {
					prev.VRuntime = hrq.maxVR
				}
				s.enqueueFair(prev, home, false)
			default:
				// Quantum expiry or preemption: the settled vruntime is
				// the only ordering input; no recharge loop, no arrays.
				if home != cpu {
					s.renorm(prev, rq.minVR, hrq)
				}
				s.enqueueFair(prev, home, false)
			}
			res.Cycles += env.Cost.AddRunqueue + s.logCost(home)
		}
	}

	s.bal.Tick(cpu, &res)

	best := s.pick(cpu, cpu, &res)
	if best == nil {
		if best = s.bal.Steal(cpu, &res); best == nil {
			return res
		}
		// Re-home the stolen task, ahead of its equals, so the
		// post-dispatch bookkeeping (minVR, curr) lands on this queue.
		res.Cycles += s.migrate(best, cpu, true)
	}
	s.DelFromRunqueue(best)
	res.Cycles += env.Cost.DelRunqueue + s.logCost(cpu)
	if !best.RealTime() {
		// The dispatched task is the queue minimum, so min_vruntime
		// follows it — monotone by construction.
		if best.VRuntime > rq.minVR {
			rq.minVR = best.VRuntime
		}
		if best.VRuntime > rq.maxVR {
			rq.maxVR = best.VRuntime
		}
		best.SetCounter(env.Epoch, s.sliceFor(best, rq))
		rq.curr = best
		rq.currBase = best.UserCycles + best.SystemCycles
	} else {
		rq.curr = nil
	}
	res.Next = best
	return res
}

// pick selects from queue q the task cpu should run: best real-time level
// first, then the fair heap root. When the root is unpickable (running
// elsewhere mid-claim, or an affinity straggler Home's fallback filed
// there) the heap array is scanned for the minimum pickable entry. The
// task is left queued. With q == cpu this is the local pick; the balancer
// uses the same order on a victim's queue.
func (s *Sched) pick(q, cpu int, res *sched.Result) *task.Task {
	rq := &s.rqs[q]
	if t := rq.rt.Pick(s.env, cpu, res); t != nil {
		return t
	}
	return s.pickFair(rq, cpu, res)
}

func (s *Sched) pickFair(rq *runqueue, cpu int, res *sched.Result) *task.Task {
	env := s.env
	if rq.fair.len() == 0 {
		return nil
	}
	root := rq.fair.es[0].t
	res.Examined++
	res.Cycles += env.Cost.Touch(env.NCPU)
	if sched.CanSchedule(root, cpu) {
		return root
	}
	// Rare path: the O(1) root is unpickable; find the least-vruntime
	// pickable entry by scanning the backing array.
	var best *task.Task
	bi := -1
	for i := 1; i < len(rq.fair.es); i++ {
		res.Examined++
		res.Cycles += env.Cost.Touch(env.NCPU)
		t := rq.fair.es[i].t
		if !sched.CanSchedule(t, cpu) {
			continue
		}
		if bi < 0 || rq.fair.less(i, bi) {
			best, bi = t, i
		}
	}
	return best
}

// Drain implements sched.Scheduler: empty CPU q's private structures, the
// real-time levels in ascending level order (FIFO within), then the fair
// heap popped in ascending vruntime order.
func (s *Sched) Drain(q int, out []*task.Task) []*task.Task {
	rq := &s.rqs[q]
	s.bal.Len[q] -= rq.rt.Len() // LevelArray.Drain unlinks without DelFromRunqueue
	out = rq.rt.Drain(out)
	for rq.fair.len() > 0 {
		t := rq.fair.es[0].t
		s.DelFromRunqueue(t)
		out = append(out, t)
	}
	rq.weight = 0
	return out
}

// effectiveVR returns t's virtual clock including the cycles executed
// since its current dispatch, which are not yet settled into VRuntime —
// the number wake preemption must compare against, or a long-running
// task looks perpetually fresh.
func (s *Sched) effectiveVR(t *task.Task) uint64 {
	vr := t.VRuntime
	if t.HasCPU && t.Processor < len(s.rqs) {
		rq := &s.rqs[t.Processor]
		if rq.curr == t {
			exec := t.UserCycles + t.SystemCycles - rq.currBase
			vr += exec * weightScale / Weight(t.Priority)
		}
	}
	return vr
}

// PreemptsCurr implements the kernel's wake-preemption comparison: a
// real-time task preempts any fair one (and a lower rt_priority), and a
// waking fair task preempts the running one when its clamped vruntime
// lags the runner's effective clock by more than the wakeup granularity
// — the sleeper boost reaching the wake path, where the 2.3.99 goodness
// delta would see a tie.
func (s *Sched) PreemptsCurr(t, curr *task.Task) bool {
	if t.RealTime() {
		return !curr.RealTime() || t.RTPriority > curr.RTPriority
	}
	if curr.RealTime() {
		return false
	}
	return t.VRuntime+wakeGran < s.effectiveVR(curr)
}

// TickPreempt implements the kernel's tick-time preemption hook, called
// while t runs on cpu with quantum remaining. The running task's
// effective vruntime (settled clock plus cycles executed this stint) is
// compared against the queue: a waiting real-time task preempts a fair
// runner unconditionally and a real-time runner only from a strictly
// better level (an equal-level RR peer waits for quantum expiry, a worse
// one for the runner to block — no per-tick resched churn), and a fair
// task whose vruntime lags the runner by more than the wakeup
// granularity preempts so the slice machinery's tick quantization cannot
// hold the virtual clock hostage. Rotation is never reported: cfs has no
// same-level round-robin distinct from the vruntime order itself.
func (s *Sched) TickPreempt(cpu int, t *task.Task) (preempt, rotation bool) {
	rq := &s.rqs[cpu]
	if lvl := rq.rt.Next(0); lvl >= 0 {
		head := rq.rt.First(lvl)
		if sched.CanSchedule(head, cpu) && (!t.RealTime() || lvl < rtLevelOf(t)) {
			return true, false
		}
	}
	if t.RealTime() || rq.fair.len() == 0 {
		return false, false
	}
	currVR := s.effectiveVR(t)
	head := rq.fair.es[0].t
	if sched.CanSchedule(head, cpu) && rq.fair.es[0].vr+wakeGran < currVR {
		return true, false
	}
	return false, false
}

// stealCandidate is the balancer's first hook: the task cpu should take
// from victim's queue, left queued — its best pickable real-time task
// first, then its minimum-vruntime (greatest-lag) fair task.
func (s *Sched) stealCandidate(victim, cpu int) (res sched.Result) {
	res.Next = s.pick(victim, cpu, &res)
	return res
}

// pulled is the balancer's second hook: move queued task t to cpu's
// queue, behind its equals.
func (s *Sched) pulled(t *task.Task, cpu int) uint64 { return s.migrate(t, cpu, false) }

// migrate moves queued task t from its queue to cpu's, rebasing a fair
// task's virtual clock from the one to the other, and returns the cost.
func (s *Sched) migrate(t *task.Task, cpu int, front bool) uint64 {
	from := &s.rqs[t.QIndex]
	s.DelFromRunqueue(t)
	if t.RealTime() {
		s.enqueueRT(t, cpu, front)
	} else {
		s.renorm(t, from.minVR, &s.rqs[cpu])
		s.enqueueFair(t, cpu, front)
	}
	return s.env.Cost.MoveRunqueue + s.logCost(cpu)
}
