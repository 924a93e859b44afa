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
// Balancing is pull-based, as in 2.5: a CPU whose queue empties steals
// the best movable task from the longest queue, and every balanceEvery
// schedule() invocations a CPU with at least two fewer queued tasks than
// the busiest queue pulls one task across.
//
// On machines with cache domains (sched.Env.Topo) the balancer is
// hierarchical, mirroring the 2.5→2.6 sched_domains evolution: steal and
// pull prefer victims inside the stealing CPU's domain; a cross-domain
// move requires a larger imbalance (an idle CPU will not drag a victim's
// only queued task across the interconnect, and the periodic balancer
// demands CrossImbalance rather than two), and when a cross-domain pull
// does fire it moves a batch of tasks so the CrossDomainRefillMax each
// will pay is amortized over a real rebalance rather than spent on
// ping-pong. The TopologyBlind config knob disables all of this — the
// scheduler then sees the machine as one flat domain — and exists so the
// experiments can measure exactly what domain awareness buys.
//
// A starvation guard bounds expired-array wait: if the expired array has
// been non-empty for StarvationLimit consecutive schedule() calls on its
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
// bonus clears InteractiveDelta are interactive: on quantum expiry they
// are recharged and requeued at the tail of the active array instead of
// parking in expired — the fix for latency probes waiting out a full hog
// quantum behind an array swap — and a waking interactive task with a
// spent quantum is recharged into the active array for the same reason.
// Both re-insertions are bounded by the StarvationLimit clock: once the
// expired array has waited that long, interactive tasks expire normally
// and the forced swap proceeds, so hogs always make progress.
//
// Two more 2.5-era pieces ride along. TIMESLICE_GRANULARITY chunking:
// every GranularityTicks of a running interactive task's quantum, if
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
	"math/bits"

	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

const (
	// rtLevels reserves one level per rt_priority value (0..99).
	rtLevels = task.MaxRTPriority + 1
	// numLevels adds one level per SCHED_OTHER static priority (1..40).
	numLevels = rtLevels + task.MaxPriority
	// nWords is the bitmap size: one bit per level.
	nWords = (numLevels + 63) / 64

	// balanceEvery is the pull-balancing period in schedule() calls per
	// CPU, and balanceImbalance the queue-length gap that triggers a
	// pull — the 2.5 kernel's "25% imbalance" rule at small queue sizes.
	balanceEvery     = 32
	balanceImbalance = 2

	// crossStealMin is the minimum victim queue length for an idle steal
	// that leaves the thief's cache domain: dragging a victim's only
	// queued task across the interconnect costs more than letting the
	// victim run it next.
	crossStealMin = 2

	// maxBonus bounds the dynamic-priority bonus: sleep_avg maps onto
	// [-maxBonus, +maxBonus] effective priority levels (2.5's MAX_BONUS).
	maxBonus = 5
)

// BonusSpan is the number of distinct bonus values (-maxBonus..+maxBonus);
// BonusLevels returns one counter per value, index 0 = -maxBonus.
const BonusSpan = 2*maxBonus + 1

// Config tunes the o1 scheduler's domain-aware balancing. The zero value
// gives the default, domain-aware behavior.
type Config struct {
	// TopologyBlind makes the balancer ignore cache domains, treating
	// the machine as one flat domain — the pre-sched_domains behavior,
	// kept as the ablation baseline for the NUMA experiments.
	TopologyBlind bool
	// CrossImbalance is the queue-length gap required before the
	// periodic balancer pulls across a domain boundary (default 4,
	// twice the intra-domain threshold).
	CrossImbalance int
	// CrossBatch caps the tasks moved per cross-domain pull (default 4).
	// Batching amortizes the cross-domain cache-refill penalty: one
	// decisive rebalance instead of a penalty per balancing period.
	CrossBatch int
	// StarvationLimit is how many schedule() calls the expired array may
	// sit non-empty before a forced array swap (default 128; <0
	// disables the guard). The same clock bounds interactive re-insertion
	// into the active array: once the expired array has starved that
	// long, interactive tasks expire normally until the swap happens.
	StarvationLimit int
	// InteractivityOff disables the sleep_avg machinery — no dynamic-
	// priority bonus, no active-array requeue on expiry, no timeslice
	// granularity chunking. The ablation baseline for the latency
	// experiments: with it set, a quantum-expired probe parks behind a
	// full hog quantum in the expired array.
	InteractivityOff bool
	// InteractiveDelta is the bonus a task needs to count as interactive
	// and earn active-array re-insertion (default 2, range 1..maxBonus).
	InteractiveDelta int
	// GranularityTicks is the TIMESLICE_GRANULARITY chunk in quantum
	// ticks: every multiple, a running interactive task with a same-level
	// queued peer on its CPU is rotated to the tail of its level
	// (default 2 ticks = 20 ms; <0 disables chunking).
	GranularityTicks int
	// WakeIdleOff makes the policy decline the kernel's SD_WAKE_IDLE
	// placement hints: woken tasks always file on their home CPU's queue,
	// the pre-sched_domains wake path. Ablation knob.
	WakeIdleOff bool
}

func (c Config) withDefaults() Config {
	if c.CrossImbalance == 0 {
		c.CrossImbalance = 2 * balanceImbalance
	}
	if c.CrossBatch == 0 {
		c.CrossBatch = 4
	}
	if c.StarvationLimit == 0 {
		c.StarvationLimit = 128
	}
	if c.InteractiveDelta == 0 {
		c.InteractiveDelta = 2
	}
	if c.GranularityTicks == 0 {
		c.GranularityTicks = 2
	}
	return c
}

// levelOf maps a task to its static priority level; lower level = higher
// priority, so the bitmap find-first-set returns the best level directly.
func levelOf(t *task.Task) int {
	if t.RealTime() {
		return task.MaxRTPriority - t.RTPriority
	}
	return rtLevels + task.MaxPriority - t.Priority
}

// prioArray is one priority array: a bitmap over levels plus one FIFO
// list per level, mirroring struct prio_array.
type prioArray struct {
	bitmap [nWords]uint64
	lists  [numLevels]klist.Head
	count  int
}

func (a *prioArray) init() {
	for i := range a.lists {
		a.lists[i].Init()
	}
}

// firstSet returns the highest-priority populated level, or -1.
func (a *prioArray) firstSet() int {
	for w := 0; w < nWords; w++ {
		if a.bitmap[w] != 0 {
			return w*64 + bits.TrailingZeros64(a.bitmap[w])
		}
	}
	return -1
}

// nextSet returns the first populated level >= from, or -1.
func (a *prioArray) nextSet(from int) int {
	if from >= numLevels {
		return -1
	}
	w := from / 64
	word := a.bitmap[w] &^ (1<<uint(from%64) - 1)
	for {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
		w++
		if w >= nWords {
			return -1
		}
		word = a.bitmap[w]
	}
}

func (a *prioArray) setBit(lvl int)   { a.bitmap[lvl/64] |= 1 << uint(lvl%64) }
func (a *prioArray) clearBit(lvl int) { a.bitmap[lvl/64] &^= 1 << uint(lvl%64) }

// runqueue is one CPU's pair of arrays; activeIdx selects the active one
// so the array swap is a single index flip, never a task walk. schedSeq
// counts Schedule calls on this queue, and expiredSince records the
// schedSeq at which the expired array last became (or stayed) non-empty —
// the clock for the starvation guard, measured in scheduling decisions
// because the policy has no view of virtual time.
type runqueue struct {
	arrays       [2]prioArray
	activeIdx    int
	sinceBalance int
	schedSeq     uint64
	expiredSince uint64

	// rotate marks the task TickPreempt rotated for timeslice-
	// granularity chunking; the next Schedule on this CPU files it at the
	// tail of its level (losing the FIFO tie) instead of the head.
	rotate *task.Task
}

func (rq *runqueue) active() *prioArray  { return &rq.arrays[rq.activeIdx] }
func (rq *runqueue) expired() *prioArray { return &rq.arrays[1-rq.activeIdx] }
func (rq *runqueue) len() int            { return rq.arrays[0].count + rq.arrays[1].count }

// CPUSteals is one CPU's balancer activity: tasks its steal and pull
// paths moved onto it from queues in the same cache domain (Intra) and
// from queues across a domain boundary (Cross). The type lives in sched
// so every domain-split balancer reports through the same shape.
type CPUSteals = sched.CPUSteals

// Sched is the O(1) scheduler. Create with New.
type Sched struct {
	env  *sched.Env
	cfg  Config
	topo *sched.Topology // flat when TopologyBlind, else env.Topo
	rqs  []runqueue

	// steals counts tasks moved by the balancer (idle steal or periodic
	// pull) within and across cache domains, per stealing CPU, as the
	// scheduler sees them — the numa experiment's per-policy columns and
	// schedtrace's per-domain steal table.
	steals []CPUSteals

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
	s := &Sched{
		env:    env,
		cfg:    cfg.withDefaults(),
		rqs:    make([]runqueue, env.NCPU),
		steals: make([]CPUSteals, env.NCPU),
	}
	s.topo = env.Topo
	if s.cfg.TopologyBlind || s.topo == nil {
		s.topo = sched.FlatTopology(env.NCPU)
	}
	for i := range s.rqs {
		s.rqs[i].arrays[0].init()
		s.rqs[i].arrays[1].init()
	}
	return s
}

// DomainSteals reports tasks the balancer moved within and across cache
// domains, machine-wide. A topology-blind scheduler sees one flat domain,
// so its moves all count as intra-domain; the machine-level
// CrossDomainMigrations stat records what they really cost.
func (s *Sched) DomainSteals() (intra, cross uint64) {
	for i := range s.steals {
		intra += s.steals[i].Intra
		cross += s.steals[i].Cross
	}
	return intra, cross
}

// PerCPUSteals returns a copy of the per-CPU steal counters, indexed by
// the stealing CPU — the breakdown schedtrace renders per domain.
func (s *Sched) PerCPUSteals() []CPUSteals {
	return append([]CPUSteals(nil), s.steals...)
}

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
	return s.bonusOf(t) >= s.cfg.InteractiveDelta
}

// levelFor is the effective priority level a task files at: its static
// level shifted by the sleep_avg bonus, clamped to the SCHED_OTHER range.
// Real-time levels never move.
func (s *Sched) levelFor(t *task.Task) int {
	if t.RealTime() {
		return levelOf(t)
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

// homeOf picks the queue for t: its last CPU when the affinity mask
// allows it, otherwise the least-loaded allowed queue. Offline CPUs'
// queues are drained at hotplug and must stay empty, so they are never a
// home.
func (s *Sched) homeOf(t *task.Task) int {
	if t.EverRan && t.Processor < len(s.rqs) && t.AllowedOn(t.Processor) && s.env.CPUOnline(t.Processor) {
		return t.Processor
	}
	best := -1
	for i := range s.rqs {
		if !t.AllowedOn(i) || !s.env.CPUOnline(i) {
			continue
		}
		if best < 0 || s.rqs[i].len() < s.rqs[best].len() {
			best = i
		}
	}
	if best < 0 {
		// Inconsistent mask (or it names only offline CPUs): fall back to
		// the first online queue rather than lose the task.
		for i := range s.rqs {
			if s.env.CPUOnline(i) {
				return i
			}
		}
		best = 0
	}
	return best
}

// Task bookkeeping: QIndex holds the home CPU (the kernel maps it to the
// per-CPU lock), QStamp packs the array index and level so removal never
// searches, and QZero is unused.
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
	if front {
		arr.lists[lvl].PushFront(&t.RunList)
	} else {
		arr.lists[lvl].PushBack(&t.RunList)
	}
	arr.setBit(lvl)
	arr.count++
	if arrayIdx != rq.activeIdx && arr.count == 1 {
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
	s.addTo(t, s.homeOf(t), true)
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
		if s.interactive(t) && !s.reinsertBlocked(rq) {
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

// reinsertBlocked bounds interactive active-array re-insertion: once the
// expired array has waited StarvationLimit schedule() calls, interactive
// tasks stop jumping the queue so the forced swap can restore fairness.
func (s *Sched) reinsertBlocked(rq *runqueue) bool {
	return s.cfg.StarvationLimit >= 0 &&
		rq.expired().count > 0 &&
		rq.schedSeq-rq.expiredSince >= uint64(s.cfg.StarvationLimit)
}

// DelFromRunqueue unlinks t from whichever array list holds it.
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	arrayIdx, lvl := unstamp(t.QStamp)
	arr := &s.rqs[t.QIndex].arrays[arrayIdx]
	arr.lists[lvl].Remove(&t.RunList)
	arr.count--
	if arr.lists[lvl].Empty() {
		arr.clearBit(lvl)
	}
}

// MoveFirstRunqueue moves t to the head of its level list, so it wins
// the FIFO tie-break against equal-priority tasks.
func (s *Sched) MoveFirstRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	arrayIdx, lvl := unstamp(t.QStamp)
	s.rqs[t.QIndex].arrays[arrayIdx].lists[lvl].MoveFront(&t.RunList)
}

// MoveLastRunqueue moves t to the tail of its level list, so it loses
// the tie-break (SCHED_RR rotation).
func (s *Sched) MoveLastRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	arrayIdx, lvl := unstamp(t.QStamp)
	s.rqs[t.QIndex].arrays[arrayIdx].lists[lvl].MoveBack(&t.RunList)
}

// Runnable returns the number of queued tasks; running tasks are
// dequeued while they execute, as in 2.5.
func (s *Sched) Runnable() int {
	n := 0
	for i := range s.rqs {
		n += s.rqs[i].len()
	}
	return n
}

// OnRunqueue reports whether the scheduler currently tracks t.
func (s *Sched) OnRunqueue(t *task.Task) bool { return t.OnRunqueue() }

// QueueLen returns CPU q's total queued tasks (both arrays), for tests.
func (s *Sched) QueueLen(q int) int { return s.rqs[q].len() }

// ActiveLen and ExpiredLen expose per-array occupancy, for tests.
func (s *Sched) ActiveLen(q int) int  { return s.rqs[q].active().count }
func (s *Sched) ExpiredLen(q int) int { return s.rqs[q].expired().count }

// ExportRunnable implements sched.Scheduler. Drain order is CPU 0..n-1;
// per CPU the active array then the expired one, each in ascending level
// order (best priority first), each level front to back.
func (s *Sched) ExportRunnable() []*task.Task {
	out := make([]*task.Task, 0, s.Runnable())
	for cpu := range s.rqs {
		rq := &s.rqs[cpu]
		for _, arr := range [2]*prioArray{rq.active(), rq.expired()} {
			for {
				lvl := arr.firstSet()
				if lvl < 0 {
					break
				}
				t := task.FromNode(arr.lists[lvl].First())
				s.DelFromRunqueue(t)
				sched.ResetQueueState(t)
				out = append(out, t)
			}
		}
		rq.rotate = nil
	}
	return out
}

// DrainCPU implements sched.Scheduler: empty the offlined CPU's private
// arrays — active first, then expired, each in ascending level order —
// so its tasks can be re-filed on surviving queues.
func (s *Sched) DrainCPU(cpu int, out []*task.Task) []*task.Task {
	rq := &s.rqs[cpu]
	for _, arr := range [2]*prioArray{rq.active(), rq.expired()} {
		for {
			lvl := arr.firstSet()
			if lvl < 0 {
				break
			}
			t := task.FromNode(arr.lists[lvl].First())
			s.DelFromRunqueue(t)
			sched.ResetQueueState(t)
			out = append(out, t)
		}
	}
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
			home := s.homeOf(prev)
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

	if env.NCPU > 1 {
		rq.sinceBalance++
		if rq.sinceBalance >= balanceEvery {
			rq.sinceBalance = 0
			s.pullBalance(cpu, &res)
		}
	}

	best := s.pickLocal(cpu, &res)
	if best == nil {
		best = s.steal(cpu, &res)
	}
	if best != nil {
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
// GranularityTicks of consumed quantum, if another task waits at t's
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
	if best := rq.active().firstSet(); best >= 0 && best < lvl {
		head := task.FromNode(rq.active().lists[best].First())
		if (!head.HasCPU || head.Processor == cpu) && head.AllowedOn(cpu) {
			return true, false // a better level waits: re-pick, t keeps its spot
		}
	}
	if s.cfg.GranularityTicks < 0 || !s.interactive(t) {
		return false, false
	}
	c := t.Counter(s.env.Epoch)
	if c <= 0 || c%s.cfg.GranularityTicks != 0 {
		return false, false
	}
	if rq.active().lists[lvl].Empty() {
		return false, false
	}
	rq.rotate = t
	return true, true
}

// pickLocal selects from cpu's own queue, swapping in the expired array
// when the active one yields nothing. The swap triggers on "no pickable
// task", not "array empty": an unpickable straggler (an inconsistent
// affinity mask filed here by homeOf's fallback) must not pin the
// arrays and starve the expired tasks behind it.
func (s *Sched) pickLocal(cpu int, res *sched.Result) *task.Task {
	rq := &s.rqs[cpu]
	if s.expiredStarving(rq) {
		// Starvation guard: the expired array has waited too long
		// behind a never-draining active array. Force the swap; the
		// former active tasks keep their quantum and will win again
		// after the next natural swap.
		s.swapArrays(rq, res)
	}
	if t := s.pickArray(rq.active(), cpu, res); t != nil {
		return t
	}
	if rq.expired().count > 0 {
		// O(1) array swap: the expired tasks were recharged when they
		// were filed, so no walk happens here.
		s.swapArrays(rq, res)
		return s.pickArray(rq.active(), cpu, res)
	}
	return nil
}

// rtWord1Mask covers the real-time levels that spill into the second
// bitmap word (levels 64..rtLevels-1).
const rtWord1Mask = 1<<(rtLevels-64) - 1

// holdsRealTime reports whether any real-time level of the array is
// populated — two word tests, O(1).
func (a *prioArray) holdsRealTime() bool {
	return a.bitmap[0] != 0 || a.bitmap[1]&rtWord1Mask != 0
}

// expiredStarving reports whether the starvation guard should fire: the
// expired array has been non-empty for StarvationLimit schedule() calls.
// A queued real-time task vetoes the forced swap — demoting it into the
// expired array would let SCHED_OTHER tasks run ahead of it, and RT
// starving OTHER is policy, not a bug.
func (s *Sched) expiredStarving(rq *runqueue) bool {
	return s.cfg.StarvationLimit >= 0 &&
		rq.expired().count > 0 &&
		rq.schedSeq-rq.expiredSince >= uint64(s.cfg.StarvationLimit) &&
		!rq.active().holdsRealTime()
}

// swapArrays flips active and expired in O(1) and restarts the
// starvation clock for whatever the new expired array holds.
func (s *Sched) swapArrays(rq *runqueue, res *sched.Result) {
	rq.activeIdx = 1 - rq.activeIdx
	rq.expiredSince = rq.schedSeq
	res.Cycles += s.env.Cost.BitmapOp
}

// pickArray walks the bitmap from the highest-priority populated level
// down, returning the first head task runnable on cpu. Tasks pinned
// elsewhere (the rare leftovers of an affinity change) are skipped.
func (s *Sched) pickArray(arr *prioArray, cpu int, res *sched.Result) *task.Task {
	env := s.env
	for lvl := arr.firstSet(); lvl >= 0; lvl = arr.nextSet(lvl + 1) {
		res.Cycles += env.Cost.BitmapOp
		var found *task.Task
		arr.lists[lvl].ForEach(func(n *klist.Node) bool {
			t := task.FromNode(n)
			res.Examined++
			res.Cycles += env.Cost.Touch(env.NCPU)
			if (t.HasCPU && t.Processor != cpu) || !t.AllowedOn(cpu) {
				return true
			}
			found = t
			return false
		})
		if found != nil {
			return found
		}
	}
	return nil
}

// steal takes the best movable task from another queue — the 2.5
// idle-balance path, made hierarchical: victims inside the thief's cache
// domain are exhausted before any cross-domain queue is touched, and a
// cross-domain steal additionally requires the victim to hold at least
// crossStealMin tasks (an imbalance of one does not justify paying the
// interconnect refill). Within each tier the longest queue is tried
// first, but a queue full of pinned tasks must not end the hunt while a
// shorter queue holds stealable work, so the remaining queues are tried
// in index order. Each victim queue's lock is charged.
func (s *Sched) steal(cpu int, res *sched.Result) *task.Task {
	if t := s.stealTier(cpu, res, true); t != nil {
		return t
	}
	if s.topo.NumDomains() == 1 {
		return nil // the local tier already covered every queue
	}
	return s.stealTier(cpu, res, false)
}

// stealTier hunts one tier of the hierarchy: the thief's own domain
// (local=true) or the rest of the machine (local=false).
func (s *Sched) stealTier(cpu int, res *sched.Result, local bool) *task.Task {
	minLen := 1
	if !local {
		minLen = crossStealMin
	}
	eligible := func(i int) bool {
		return s.topo.SameDomain(i, cpu) == local && s.rqs[i].len() >= minLen
	}
	first := s.busiestWhere(cpu, 0, eligible)
	if first < 0 {
		return nil
	}
	if t := s.stealFrom(first, cpu, res); t != nil {
		s.noteMove(cpu, first)
		return t
	}
	for i := range s.rqs {
		if i == cpu || i == first || !eligible(i) {
			continue
		}
		if t := s.stealFrom(i, cpu, res); t != nil {
			s.noteMove(cpu, i)
			return t
		}
	}
	return nil
}

// noteMove classifies one balancer-driven migration for the stealing
// CPU's counters.
func (s *Sched) noteMove(cpu, victim int) {
	if s.topo.SameDomain(cpu, victim) {
		s.steals[cpu].Intra++
	} else {
		s.steals[cpu].Cross++
	}
}

// stealFrom scans one victim queue, expired array first: those tasks
// wait longest and are the coldest, so migrating them costs the least.
func (s *Sched) stealFrom(victim, cpu int, res *sched.Result) *task.Task {
	res.Cycles += s.env.Cost.LockOp
	vrq := &s.rqs[victim]
	if t := s.pickArray(vrq.expired(), cpu, res); t != nil {
		return t
	}
	return s.pickArray(vrq.active(), cpu, res)
}

// busiestWhere returns the index of the longest queue other than cpu
// satisfying the predicate, with strictly more than floor queued tasks,
// or -1.
func (s *Sched) busiestWhere(cpu, floor int, ok func(i int) bool) int {
	victim := -1
	most := floor
	for i := range s.rqs {
		if i == cpu || !ok(i) {
			continue
		}
		if n := s.rqs[i].len(); n > most {
			most = n
			victim = i
		}
	}
	return victim
}

// pullBalance is the periodic half of 2.5's load_balance, run through the
// domain hierarchy: an in-domain victim at the balanceImbalance threshold
// moves one task, exactly as before; with no in-domain imbalance, a
// cross-domain victim is considered only past the larger CrossImbalance
// gap, and then a batch of tasks moves at once — one decisive rebalance
// amortizes the per-task interconnect refill that would otherwise recur
// every balancing period.
func (s *Sched) pullBalance(cpu int, res *sched.Result) {
	rq := &s.rqs[cpu]
	inDomain := func(i int) bool { return s.topo.SameDomain(i, cpu) }
	if victim := s.busiestWhere(cpu, rq.len()+balanceImbalance-1, inDomain); victim >= 0 {
		s.pullFrom(victim, cpu, 1, res)
		return
	}
	if s.topo.NumDomains() == 1 {
		return
	}
	outDomain := func(i int) bool { return !s.topo.SameDomain(i, cpu) }
	victim := s.busiestWhere(cpu, rq.len()+s.cfg.CrossImbalance-1, outDomain)
	if victim < 0 {
		return
	}
	batch := (s.rqs[victim].len() - rq.len()) / 2
	if batch > s.cfg.CrossBatch {
		batch = s.cfg.CrossBatch
	}
	if batch < 1 {
		batch = 1
	}
	s.pullFrom(victim, cpu, batch, res)
}

// pullFrom moves up to max movable tasks from victim's queue to cpu,
// expired-first as 2.5's load_balance: those tasks are the cache-coldest
// and the victim will not miss them soon, whereas its active head is
// exactly what it would dispatch next. The victim's lock is charged once
// for the whole batch.
func (s *Sched) pullFrom(victim, cpu, max int, res *sched.Result) int {
	res.Cycles += s.env.Cost.LockOp
	vrq := &s.rqs[victim]
	rq := &s.rqs[cpu]
	moved := 0
	for moved < max {
		t := s.pickArray(vrq.expired(), cpu, res)
		if t == nil {
			t = s.pickArray(vrq.active(), cpu, res)
		}
		if t == nil {
			break
		}
		s.DelFromRunqueue(t)
		// Migrated tasks enter at the tail of their level: they lost
		// their cache footprint, so they should not jump local tasks of
		// equal priority.
		s.enqueue(t, cpu, rq.activeIdx, false)
		s.env.Requeued(t)
		res.Cycles += s.env.Cost.MoveRunqueue + s.env.Cost.BitmapOp
		s.noteMove(cpu, victim)
		moved++
	}
	return moved
}
