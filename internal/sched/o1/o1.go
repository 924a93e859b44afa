// Package o1 implements the design the multi-queue scheduler (internal/
// sched/mq) points toward as the historical endpoint of the paper's §8
// future work: the Linux 2.5 O(1) scheduler. Every processor owns a
// private run queue (the kernel reads the VisibleOwner declaration and
// splits the global run-queue lock), and each queue holds two priority
// arrays — active and expired — with one list per priority level and a
// find-first-set bitmap over the levels.
//
// schedule() therefore never scans tasks: it reads the bitmap, takes the
// head of the highest populated list, and runs it. No goodness() is
// computed on the pick path, which is exactly the contrast the ablation
// benchmarks quantify against the stock O(n) scan. The counter-
// recalculation loop disappears entirely: a task that exhausts its
// quantum is recharged immediately and filed into the expired array, and
// when the active array empties the two arrays swap in O(1). Recalcs is
// always zero for this policy.
//
// Priority levels follow the 2.5 kernel's convention: lower index is
// higher priority. Real-time tasks map rt_priority onto the top 100
// levels; SCHED_OTHER tasks map their static priority onto the 40 levels
// below, so a real-time task always outranks a timesharing one and the
// bitmap search honors rt_priority order for free.
//
// Balancing is the shared per-CPU-queue substrate's (sched.Balancer; see
// the sched package doc): an idle CPU steals, and every sched.BalanceEvery
// schedule() calls a CPU pulls from the busiest queue, in-domain victims
// first and cross-domain only past a larger imbalance, then in a batch.
// What is o1's own is which task a victim gives up — its expired array
// before its active one: those tasks wait longest and are the
// cache-coldest, whereas the active head is exactly what the victim would
// dispatch next — and that a pulled task enters the thief's active array
// at the tail of its level, behind local tasks of equal priority. The
// TopologyBlind knob hands the balancer a flat topology — the scheduler
// then sees the machine as one domain — and exists so the experiments can
// measure exactly what domain awareness buys.
//
// A starvation guard bounds expired-array wait: if the expired array has
// been non-empty for starvationLimit (128) consecutive schedule() calls on its
// CPU without a swap, the arrays are force-swapped even though the active
// array still holds runnable tasks (the check 2.6 performs with
// EXPIRED_STARVING). Without it, a steady stream of fresh wakers could
// keep the active array populated forever while expired tasks wait.
//
// # Interactivity
//
// The scheduler carries the 2.5 kernel's sleep_avg machinery. The kernel
// credits each task's sleep_avg while it blocks and drains it while it
// runs (internal/task hooks, clamped at the cost model's MaxSleepAvg);
// this policy maps the ratio onto a dynamic-priority bonus of ±5 levels
// in the bitmap arrays, so a task that sleeps most of the time files five
// levels above its static priority and a pure hog five below. Tasks whose
// bonus clears interactiveDelta are interactive: on quantum expiry they
// are recharged and requeued at the tail of the active array instead of
// parking in expired — the fix for latency probes waiting out a full hog
// quantum behind an array swap — and a waking interactive task with a
// spent quantum is recharged into the active array for the same reason.
// Both re-insertions are bounded by the starvationLimit clock: once the
// expired array has waited that long, interactive tasks expire normally
// and the forced swap proceeds, so hogs always make progress.
//
// Two more 2.5-era pieces ride along. TIMESLICE_GRANULARITY chunking:
// every granularityTicks (2 ticks) of a running interactive task's quantum, if
// another task waits at its level on this CPU, the tick preempts it and
// Schedule files it at the tail of its level, so same-level interactive
// tasks round-robin inside a quantum instead of serializing. And
// SD_WAKE_IDLE placement: the kernel offers the policy an idle CPU in the
// waker's cache domain at wake time (PlaceWake), which files the woken
// task there directly rather than queueing it behind its home CPU's
// backlog. The InteractivityOff and WakeIdleOff knobs disable each half
// independently, so the experiments can measure exactly what they buy.
package o1

import (
	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

const (
	// rtLevels reserves one level per rt_priority value (0..99); one level
	// per SCHED_OTHER static priority (1..40) follows.
	rtLevels = sched.RTLevels

	// maxBonus bounds the dynamic-priority bonus: sleep_avg maps onto
	// [-maxBonus, +maxBonus] effective priority levels (2.5's MAX_BONUS).
	maxBonus = 5

	// interactiveDelta is the bonus a task needs to count as interactive
	// and earn active-array re-insertion.
	interactiveDelta = 2

	// starvationLimit is how many schedule() calls the expired array may
	// sit non-empty before a forced array swap. The same clock bounds
	// interactive re-insertion into the active array: once the expired
	// array has starved that long, interactive tasks expire normally
	// until the swap happens.
	starvationLimit = 128

	// granularityTicks is the TIMESLICE_GRANULARITY chunk in quantum
	// ticks (20 ms): every multiple, a running interactive task with a
	// same-level queued peer on its CPU is rotated to the tail of its
	// level.
	granularityTicks = 2
)

// BonusSpan is the number of distinct bonus values (-maxBonus..+maxBonus);
// BonusLevels returns one counter per value, index 0 = -maxBonus.
const BonusSpan = 2*maxBonus + 1

// Config selects the o1 scheduler's ablation arms. The zero value gives
// the default: domain-aware, interactivity-aware, SD_WAKE_IDLE placing.
type Config struct {
	// TopologyBlind makes the balancer ignore cache domains, treating
	// the machine as one flat domain — the pre-sched_domains behavior,
	// kept as the ablation baseline for the NUMA experiments.
	TopologyBlind bool
	// InteractivityOff disables the sleep_avg machinery — no dynamic-
	// priority bonus, no active-array requeue on expiry, no timeslice
	// granularity chunking. The ablation baseline for the latency
	// experiments: with it set, a quantum-expired probe parks behind a
	// full hog quantum in the expired array.
	InteractivityOff bool
	// WakeIdleOff makes the policy decline the kernel's SD_WAKE_IDLE
	// placement hints: woken tasks always file on their home CPU's queue,
	// the pre-sched_domains wake path. Ablation knob.
	WakeIdleOff bool
}

// runqueue is one CPU's pair of priority arrays (sched.LevelArray,
// mirroring struct prio_array; lists is their SCHED_OTHER levels, the
// real-time ones being the arrays' own); activeIdx selects the active one so
// the array swap is a single index flip, never a task walk. schedSeq
// counts Schedule calls on this queue, and expiredSince records the
// schedSeq at which the expired array last became (or stayed) non-empty —
// the clock for the starvation guard, measured in scheduling decisions
// because the policy has no view of virtual time.
type runqueue struct {
	arrays       [2]sched.LevelArray
	lists        [2][task.MaxPriority]klist.Head
	activeIdx    int
	schedSeq     uint64
	expiredSince uint64

	// rotate marks the task TickPreempt rotated for timeslice-
	// granularity chunking; the next Schedule on this CPU files it at the
	// tail of its level (losing the FIFO tie) instead of the head.
	rotate *task.Task
}

func (rq *runqueue) active() *sched.LevelArray  { return &rq.arrays[rq.activeIdx] }
func (rq *runqueue) expired() *sched.LevelArray { return &rq.arrays[1-rq.activeIdx] }

// Sched is the O(1) scheduler. Create with New.
type Sched struct {
	env *sched.Env
	cfg Config
	rqs []runqueue

	// bal holds the queue lengths (enqueue and DelFromRunqueue bump them)
	// and runs the idle steal and the periodic pull over them.
	bal sched.Balancer

	// bonusLevels counts SCHED_OTHER enqueues by dynamic-priority bonus
	// (index 0 = -maxBonus), the interactivity estimator's observable
	// distribution; interactiveRequeues counts active-array re-insertions
	// the interactivity rules granted (quantum-expiry requeues and
	// spent-quantum wake recharges).
	bonusLevels         [BonusSpan]uint64
	interactiveRequeues uint64
}

// New returns an O(1) scheduler bound to env with the default config.
func New(env *sched.Env) *Sched { return NewWithConfig(env, Config{}) }

// NewWithConfig returns an O(1) scheduler with tuned balancing knobs.
func NewWithConfig(env *sched.Env, cfg Config) *Sched {
	s := &Sched{env: env, cfg: cfg, rqs: make([]runqueue, env.NCPU)}
	topo := env.Topo
	if s.cfg.TopologyBlind {
		topo = nil // the balancer sees one flat domain
	}
	s.bal = sched.NewBalancer(env, topo, s.stealCandidate, s.pulled)
	for i := range s.rqs {
		rq := &s.rqs[i]
		rq.arrays[0].Init(&env.Tasks, rq.lists[0][:])
		rq.arrays[1].Init(&env.Tasks, rq.lists[1][:])
	}
	return s
}

// DomainSteals and PerCPUSteals implement sched.StealReporter with the
// balancer's counters.
func (s *Sched) DomainSteals() (intra, cross uint64) { return s.bal.DomainSteals() }
func (s *Sched) PerCPUSteals() []sched.CPUSteals     { return s.bal.PerCPUSteals() }

// bonusOf maps a task's sleep_avg onto the dynamic-priority bonus: zero
// credit is -maxBonus (a hog files below its static priority), a full
// MaxSleepAvg of credit is +maxBonus (2.5's CURRENT_BONUS, recentered).
func (s *Sched) bonusOf(t *task.Task) int {
	if s.cfg.InteractivityOff || t.RealTime() {
		return 0
	}
	max := s.env.Cost.MaxSleepAvg
	if max == 0 {
		return 0
	}
	return int(t.SleepAvg()*BonusSpan/(max+1)) - maxBonus
}

// interactive reports whether the task's bonus clears the interactivity
// threshold — 2.6's TASK_INTERACTIVE, gating active-array re-insertion
// and timeslice-granularity rotation.
func (s *Sched) interactive(t *task.Task) bool {
	if s.cfg.InteractivityOff || t.RealTime() {
		return false
	}
	return s.bonusOf(t) >= interactiveDelta
}

// levelFor is the level a task files at; lower level = higher priority, so
// the bitmap find-first-set returns the best level directly. A real-time
// task's is fixed by rt_priority; a SCHED_OTHER task's is its static level
// shifted by the sleep_avg bonus, clamped to the SCHED_OTHER range.
func (s *Sched) levelFor(t *task.Task) int {
	if t.RealTime() {
		return task.MaxRTPriority - t.RTPriority
	}
	prio := t.Priority + s.bonusOf(t)
	if prio < task.MinPriority {
		prio = task.MinPriority
	}
	if prio > task.MaxPriority {
		prio = task.MaxPriority
	}
	return rtLevels + task.MaxPriority - prio
}

// BonusLevels returns a copy of the enqueue counts by dynamic-priority
// bonus, index 0 = -5 through index 10 = +5 — the distribution schedtrace
// renders and the sweep JSON records.
func (s *Sched) BonusLevels() []uint64 {
	return append([]uint64(nil), s.bonusLevels[:]...)
}

// InteractiveRequeues reports how many times the interactivity rules
// re-inserted a task into the active array instead of expiring it.
func (s *Sched) InteractiveRequeues() uint64 { return s.interactiveRequeues }

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "o1" }

// Visibility implements sched.Scheduler: a queued task waits on CPU
// QIndex's private queue, under that queue's own lock.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleOwner }

// Task bookkeeping: QIndex holds the home CPU (the kernel maps it to the
// per-CPU lock) and QStamp packs the array index and level so removal
// never searches.
func stampOf(arrayIdx, lvl int) uint64 { return uint64(arrayIdx)<<8 | uint64(lvl) }

func unstamp(st uint64) (arrayIdx, lvl int) { return int(st >> 8 & 1), int(st & 0xff) }

// enqueue files t at level lvl of the given array on cpu's queue.
// front selects head insertion (newly woken tasks, preempted tasks)
// versus tail (round-robin rotation, expired tasks).
func (s *Sched) enqueue(t *task.Task, cpu, arrayIdx int, front bool) {
	rq := &s.rqs[cpu]
	arr := &rq.arrays[arrayIdx]
	lvl := s.levelFor(t)
	if !t.RealTime() && !s.cfg.InteractivityOff {
		s.bonusLevels[s.bonusOf(t)+maxBonus]++
	}
	arr.Push(t, lvl, front)
	s.bal.Len[cpu]++
	if arrayIdx != rq.activeIdx && arr.Len() == 1 {
		// The expired array just became non-empty: start (or restart)
		// the starvation clock.
		rq.expiredSince = rq.schedSeq
	}
	t.QIndex = cpu
	t.QStamp = stampOf(arrayIdx, lvl)
}

// enqueueExpired files t into cpu's expired array, recharging an empty
// quantum on the way in — the O(1) replacement for the stock scheduler's
// global recalculation loop.
func (s *Sched) enqueueExpired(t *task.Task, cpu int) {
	if !t.RealTime() && t.Counter(s.env.Epoch) == 0 {
		t.SetCounter(s.env.Epoch, t.Priority)
	}
	s.enqueue(t, cpu, 1-s.rqs[cpu].activeIdx, false)
}

// AddToRunqueue files a newly runnable task at the front of its level in
// its home CPU's active array; a task arriving with an exhausted quantum
// is recharged and parked in the expired array — unless it is
// interactive, in which case addTo recharges it into the active array.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("o1: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	t.SyncCounter(s.env.Epoch)
	s.addTo(t, s.bal.Len.Home(s.env, t), true)
}

// PlaceWake accepts the kernel's SD_WAKE_IDLE hint: file the woken task
// directly on the given idle CPU's queue, inside the waker's cache
// domain, instead of behind its home CPU's backlog. Declined when the
// WakeIdleOff ablation knob is set, when the scheduler runs
// TopologyBlind (the hint is derived from the cache-domain layout this
// variant is defined not to see — pre-sched_domains kernels had no
// SD_WAKE_IDLE either), or when the hint is unusable.
func (s *Sched) PlaceWake(t *task.Task, cpu int) bool {
	if s.cfg.WakeIdleOff || s.cfg.TopologyBlind || t.IsIdle || cpu < 0 || cpu >= len(s.rqs) || !t.AllowedOn(cpu) || !s.env.CPUOnline(cpu) {
		return false
	}
	if t.OnRunqueue() {
		return false
	}
	t.SyncCounter(s.env.Epoch)
	s.addTo(t, cpu, true)
	return true
}

// addTo files a runnable task on cpu's queue, applying the interactivity
// rule for exhausted quanta: an interactive task waking with a spent
// counter is recharged into the active array — it must not wait out a
// full hog quantum in expired for the crime of having run recently —
// while a non-interactive one is recharged into expired as before. The
// re-insertion is bounded by the expired array's starvation clock.
func (s *Sched) addTo(t *task.Task, cpu int, front bool) {
	rq := &s.rqs[cpu]
	if !t.RealTime() && t.Counter(s.env.Epoch) == 0 {
		if s.interactive(t) && !rq.starved() {
			t.SetCounter(s.env.Epoch, t.Priority)
			s.interactiveRequeues++
			s.enqueue(t, cpu, rq.activeIdx, front)
			return
		}
		s.enqueueExpired(t, cpu)
		return
	}
	s.enqueue(t, cpu, rq.activeIdx, front)
}

// starved reports whether the expired array has been non-empty for
// starvationLimit schedule() calls. It bounds interactive active-array
// re-insertion — from then on interactive tasks stop jumping the queue so
// the forced swap can restore fairness — and arms that swap.
func (rq *runqueue) starved() bool {
	return rq.expired().Len() > 0 && rq.schedSeq-rq.expiredSince >= starvationLimit
}

// DelFromRunqueue unlinks t from whichever array list holds it.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	arrayIdx, lvl := unstamp(t.QStamp)
	s.rqs[t.QIndex].arrays[arrayIdx].Remove(t, lvl)
	s.bal.Len[t.QIndex]--
}

// Runnable returns the number of queued tasks; running tasks are
// dequeued while they execute, as in 2.5.
func (s *Sched) Runnable() int { return s.bal.Len.Total() }

// Drain implements sched.Scheduler: empty CPU q's private arrays — active
// first, then expired, each in ascending level order (best priority
// first), each level front to back.
func (s *Sched) Drain(q int, out []*task.Task) []*task.Task {
	rq := &s.rqs[q]
	out = rq.active().Drain(out)
	out = rq.expired().Drain(out)
	s.bal.Len[q] = 0
	rq.rotate = nil
	return out
}

// Schedule implements the O(1) pick: file the previous task, swap arrays
// if the active one drained, read the bitmap, take the head of the best
// list. Cost is charged per bitmap word touched and per list head
// examined — never per queued task.
func (s *Sched) Schedule(cpu int, prev *task.Task) sched.Result {
	env := s.env
	res := sched.Result{Cycles: env.Cost.ScheduleBase}
	rq := &s.rqs[cpu]
	rq.schedSeq++
	rotated := !prev.IsIdle && rq.rotate == prev
	rq.rotate = nil

	yielded := false
	if !prev.IsIdle {
		yielded = prev.Yielded
		prev.Yielded = false
		rrExpired := false
		if prev.Policy == task.RR && prev.Counter(env.Epoch) == 0 {
			prev.SetCounter(env.Epoch, prev.Priority)
			rrExpired = true
		}
		if prev.Runnable() && !prev.OnRunqueue() {
			home := s.bal.Len.Home(env, prev)
			switch {
			case !prev.RealTime() && prev.Counter(env.Epoch) == 0:
				// Quantum expiry: recharge. Interactive tasks re-enter
				// the active array at the tail of their level (2.6's
				// TASK_INTERACTIVE requeue, bounded by the starvation
				// clock); everyone else parks in expired.
				s.addTo(prev, home, false)
			case yielded && !prev.RealTime():
				// sched_yield sends a timesharing task behind every
				// active task, 2.6-style, so yield-spinning locks
				// cannot starve a lower-priority lock holder.
				s.enqueueExpired(prev, home)
			case yielded || rrExpired:
				// Real-time yield/rotation: tail of its own level.
				s.enqueue(prev, home, s.rqs[home].activeIdx, false)
			case rotated:
				// TIMESLICE_GRANULARITY rotation: quantum left, but a
				// same-level peer is waiting — tail of its level, so
				// the peers round-robin inside the quantum.
				s.enqueue(prev, home, s.rqs[home].activeIdx, false)
			default:
				// Preempted with quantum left: keep its spot.
				s.enqueue(prev, home, s.rqs[home].activeIdx, true)
			}
			res.Cycles += env.Cost.AddRunqueue + env.Cost.BitmapOp
		}
	}

	s.bal.Tick(cpu, &res)

	best := s.pickLocal(cpu, &res)
	if best == nil {
		best = s.bal.Steal(cpu, &res)
	}
	if best != nil {
		// A stolen task is dequeued where it waits, like a local one.
		s.DelFromRunqueue(best)
		res.Cycles += env.Cost.DelRunqueue + env.Cost.BitmapOp
		res.Next = best
	}
	return res
}

// PreemptsCurr implements the kernel's wake-preemption comparison —
// 2.6's TASK_PREEMPTS_CURR: the woken task preempts the running one when
// its effective (bonus-laden) level is strictly better. This is how
// sleep_avg reaches the wake path: an interactive task at the same
// static priority as a hog files five levels above it and preempts it on
// wake, where the 2.3.99 goodness comparison would see a tie.
func (s *Sched) PreemptsCurr(t, curr *task.Task) bool {
	return s.levelFor(t) < s.levelFor(curr)
}

// TickPreempt implements the kernel's tick-time preemption hook: called
// from the timer tick while t runs on cpu with quantum remaining. Two
// interactivity rules fire here, distinguished for the kernel's stats.
// First, if the active array holds a strictly better effective level
// than the running task's — a sleeper's bonus rose past a hog whose own
// bonus drained since the wake-time comparison tied — the tick preempts
// (preempt true, rotation false) so the better task never waits out a
// whole quantum on a stale decision; the bitmap makes the check O(1),
// and the head of the better list must itself be pickable here so an
// unpickable affinity straggler cannot buy a spurious interrupt every
// tick. Second, TIMESLICE_GRANULARITY chunking (both true): every
// granularityTicks of consumed quantum, if another task waits at t's
// own effective level on this CPU, t is marked for rotation and
// preempted; the next Schedule files it at the tail of its level, so
// same-level interactive tasks round-robin inside a quantum instead of
// serializing.
func (s *Sched) TickPreempt(cpu int, t *task.Task) (preempt, rotation bool) {
	if s.cfg.InteractivityOff || t.RealTime() {
		return false, false
	}
	rq := &s.rqs[cpu]
	lvl := s.levelFor(t)
	if best := rq.active().Next(0); best >= 0 && best < lvl {
		if sched.CanSchedule(rq.active().First(best), cpu) {
			return true, false // a better level waits: re-pick, t keeps its spot
		}
	}
	if !s.interactive(t) {
		return false, false
	}
	c := t.Counter(s.env.Epoch)
	if c <= 0 || c%granularityTicks != 0 {
		return false, false
	}
	if rq.active().First(lvl) == nil {
		return false, false
	}
	rq.rotate = t
	return true, true
}

// pickLocal selects from cpu's own queue, swapping in the expired array
// when the active one yields nothing. The swap triggers on "no pickable
// task", not "array empty": an unpickable straggler (an inconsistent
// affinity mask filed here by Home's fallback) must not pin the
// arrays and starve the expired tasks behind it.
func (s *Sched) pickLocal(cpu int, res *sched.Result) *task.Task {
	rq := &s.rqs[cpu]
	if rq.starved() && !holdsRealTime(rq.active()) {
		// Starvation guard: the expired array has waited too long
		// behind a never-draining active array. Force the swap; the
		// former active tasks keep their quantum and will win again
		// after the next natural swap. A queued real-time task vetoes
		// it — demoting it into the expired array would let SCHED_OTHER
		// tasks run ahead of it, and RT starving OTHER is policy, not a
		// bug.
		s.swapArrays(rq, res)
	}
	if t := rq.active().Pick(s.env, cpu, res); t != nil {
		return t
	}
	if rq.expired().Len() > 0 {
		// O(1) array swap: the expired tasks were recharged when they
		// were filed, so no walk happens here.
		s.swapArrays(rq, res)
		return rq.active().Pick(s.env, cpu, res)
	}
	return nil
}

// holdsRealTime reports whether any real-time level of the array is
// populated: its best level is one — a bitmap read, O(1).
func holdsRealTime(a *sched.LevelArray) bool {
	best := a.Next(0)
	return best >= 0 && best < rtLevels
}

// swapArrays flips active and expired in O(1) and restarts the
// starvation clock for whatever the new expired array holds.
func (s *Sched) swapArrays(rq *runqueue, res *sched.Result) {
	rq.activeIdx = 1 - rq.activeIdx
	rq.expiredSince = rq.schedSeq
	res.Cycles += s.env.Cost.BitmapOp
}

// stealCandidate is the balancer's first hook: the task cpu should take
// from victim's queue, left queued. The expired array goes first: those
// tasks wait longest and are the cache-coldest, so migrating them costs
// the least and the victim will not miss them soon, whereas its active
// head is exactly what it would dispatch next.
func (s *Sched) stealCandidate(victim, cpu int) (res sched.Result) {
	vrq := &s.rqs[victim]
	if res.Next = vrq.expired().Pick(s.env, cpu, &res); res.Next == nil {
		res.Next = vrq.active().Pick(s.env, cpu, &res)
	}
	return res
}

// pulled is the balancer's second hook: move queued task t to cpu's
// active array. Migrated tasks enter at the tail of their level: they
// lost their cache footprint, so they should not jump local tasks of
// equal priority.
func (s *Sched) pulled(t *task.Task, cpu int) uint64 {
	s.DelFromRunqueue(t)
	s.enqueue(t, cpu, s.rqs[cpu].activeIdx, false)
	return s.env.Cost.MoveRunqueue + s.env.Cost.BitmapOp
}
