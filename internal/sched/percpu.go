package sched

import (
	"math/bits"

	"elsc/internal/klist"
	"elsc/internal/task"
)

// The per-CPU-queue substrate: what mq, o1 and cfs share. See the package
// doc for what a policy supplies, what it gets, and the three host-cost
// traps the shapes below exist to avoid.

const (
	// levelWords sizes a LevelArray's bitmap: three words, enough for
	// o1's 140 levels and reg's 161.
	levelWords = 3

	// BalanceEvery is the pull-balancing period in schedule() calls per
	// CPU, and balanceImbalance the in-domain queue-length gap that
	// triggers a pull — the 2.5 kernel's "25% imbalance" rule at small
	// queue sizes.
	BalanceEvery     = 32
	balanceImbalance = 2

	// crossStealMin is the minimum victim queue length for an idle steal
	// that leaves the thief's cache domain: dragging a victim's only
	// queued task across the interconnect costs more than letting the
	// victim run it next.
	crossStealMin = 2

	// crossImbalance is the queue-length gap the periodic balancer needs
	// before it pulls across a domain boundary (twice the in-domain gap).
	crossImbalance = 2 * balanceImbalance

	// crossBatch caps the tasks one cross-domain pull moves. Batching
	// amortizes the cross-domain cache-refill penalty: one decisive
	// rebalance instead of a penalty per balancing period.
	crossBatch = 4
)

// CanSchedule mirrors the kernel's can_schedule: t is not running on
// another CPU and its affinity mask allows cpu.
func CanSchedule(t *task.Task, cpu int) bool {
	return (!t.HasCPU || t.Processor == cpu) && t.AllowedOn(cpu)
}

// RTLevels is the number of real-time levels at the top of every
// LevelArray: one per rt_priority value, rt_priority 99 at level 0.
const RTLevels = task.MaxRTPriority + 1

// LevelArray is a priority array in the shape of 2.5's struct prio_array:
// one FIFO list per level, a find-first-set bitmap over the levels and a
// task count. Level 0 is the best. The lists link slots of the Env's task
// table, and are two segments (trap (c) in the package doc): the
// SCHED_OTHER levels, RTLevels and up, are storage in the policy's queue
// set, handed to Init — none for cfs; the real-time levels below are the
// array's own and exist from the first push to one of them, which no
// registry cell makes.
type LevelArray struct {
	bitmap [levelWords]uint64
	tasks  *task.Table
	rt     []klist.Head // levels 0..RTLevels-1; nil until first pushed to
	other  []klist.Head // levels RTLevels and up
	count  int
}

// Init makes a an empty array over tasks of RTLevels real-time levels and
// one SCHED_OTHER level per element of other, which must be empty lists.
func (a *LevelArray) Init(tasks *task.Table, other []klist.Head) {
	if RTLevels+len(other) > levelWords*64 {
		panic("sched: LevelArray over more lists than its bitmap has bits")
	}
	*a = LevelArray{tasks: tasks, other: other}
}

// Len returns the number of queued tasks.
func (a *LevelArray) Len() int { return a.count }

// level returns level lvl's list. A real-time lvl must be one a task is or
// was filed at: read the bitmap or a stamp.
func (a *LevelArray) level(lvl int) *klist.Head {
	if lvl >= RTLevels {
		return &a.other[lvl-RTLevels]
	}
	return &a.rt[lvl]
}

// First returns the task at the front of level lvl (next to run there), or
// nil; the rest of the level follows it through the task table's Next. A
// real-time lvl must be one a task is or was filed at, as for level.
func (a *LevelArray) First(lvl int) *task.Task { return a.tasks.First(a.level(lvl)) }

// Next returns the best populated level >= from, or -1; Next(0) is the
// array's best level.
func (a *LevelArray) Next(from int) int {
	if from >= RTLevels+len(a.other) {
		return -1
	}
	w := from / 64
	word := a.bitmap[w] &^ (1<<uint(from%64) - 1)
	for word == 0 {
		if w++; w == levelWords {
			return -1
		}
		word = a.bitmap[w]
	}
	return w*64 + bits.TrailingZeros64(word)
}

// Push files t at the front or the tail of level lvl.
func (a *LevelArray) Push(t *task.Task, lvl int, front bool) {
	if lvl < RTLevels && a.rt == nil {
		a.rt = make([]klist.Head, RTLevels)
	}
	n, i := a.tasks.Link(t)
	if front {
		a.tasks.Nodes().PushFront(a.level(lvl), n, i)
	} else {
		a.tasks.Nodes().PushBack(a.level(lvl), n, i)
	}
	a.bitmap[lvl/64] |= 1 << uint(lvl%64)
	a.count++
}

// Remove unlinks t from level lvl, where it must be filed.
func (a *LevelArray) Remove(t *task.Task, lvl int) {
	l := a.level(lvl)
	n, i := a.tasks.Link(t)
	a.tasks.Nodes().Remove(l, n, i)
	if l.Empty() {
		a.bitmap[lvl/64] &^= 1 << uint(lvl%64)
	}
	a.count--
}

// Pick returns the first task cpu may run, best level first and front to
// back within a level, and leaves it queued. It charges res one BitmapOp
// per populated level visited and one Touch per task reached — never per
// queued task. Tasks pinned elsewhere (the rare leftovers of an affinity
// change) are skipped.
func (a *LevelArray) Pick(env *Env, cpu int, res *Result) *task.Task {
	touch := env.Cost.Touch(env.NCPU)
	for lvl := a.Next(0); lvl >= 0; lvl = a.Next(lvl + 1) {
		res.Cycles += env.Cost.BitmapOp
		for t := a.First(lvl); t != nil; t = a.tasks.Next(t) {
			res.Examined++
			res.Cycles += touch
			if CanSchedule(t, cpu) {
				return t
			}
		}
	}
	return nil
}

// Drain empties the array in ascending level order, each level front to
// back, appending every task to out unlinked. The caller settles its
// queue-length count.
func (a *LevelArray) Drain(out []*task.Task) []*task.Task {
	for lvl := a.Next(0); lvl >= 0; lvl = a.Next(lvl) {
		t := a.First(lvl)
		a.Remove(t, lvl)
		out = append(out, t)
	}
	return out
}

// QueueLens is the queued-task count of every per-CPU queue, indexed by
// CPU. The policy owns the queues and bumps the count at its one enqueue
// and one dequeue site; placement and the balancer read it as plain state
// (trap (b) in the package doc).
type QueueLens []int

// Total returns the number of queued tasks machine-wide.
func (l QueueLens) Total() int {
	n := 0
	for _, c := range l {
		n += c
	}
	return n
}

// Home picks the queue a runnable task is filed on: its last CPU when the
// affinity mask allows it and the CPU is online, otherwise the
// least-loaded allowed online queue (lowest index on a tie). Offline
// CPUs' queues are drained at hotplug and must stay empty, so they are
// never a home; a mask that names no online CPU falls back to the first
// online queue rather than lose the task.
func (l QueueLens) Home(env *Env, t *task.Task) int {
	if p := t.Processor; t.EverRan && p < len(l) && t.AllowedOn(p) && env.CPUOnline(p) {
		return p
	}
	best := -1
	for i, n := range l {
		if t.AllowedOn(i) && env.CPUOnline(i) && (best < 0 || n < l[best]) {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	for i := range l {
		if env.CPUOnline(i) {
			return i
		}
	}
	return 0
}

// Balancer moves queued tasks between per-CPU queues: the 2.5 kernel's
// idle steal and periodic load_balance, run through the cache-domain
// hierarchy as 2.6's sched_domains does. It owns the queue lengths, the
// per-CPU cadence and the steal counters; the queues themselves stay the
// policy's, reached through the two hooks given to NewBalancer. It never
// asks which policy it serves.
type Balancer struct {
	// Len holds the per-CPU queue lengths; the policy's enqueue and
	// dequeue bump it.
	Len QueueLens

	env       *Env
	topo      *Topology
	candidate func(victim, cpu int) Result
	refile    func(t *task.Task, cpu int) uint64

	since  []int       // schedule() calls per CPU since its last pull
	steals []CPUSteals // tasks moved, by the CPU that took them
}

// NewBalancer returns a balancer for env's CPUs over topo (nil or a
// FlatTopology makes it domain-blind). The hooks are the policy's half:
//
//   - candidate(victim, cpu) scans victim's queue for the task cpu should
//     take first and returns it in Result.Next, left queued, with the
//     scan's Examined and Cycles (nil Next: nothing there cpu may run);
//   - refile(t, cpu) moves queued task t to the tail of cpu's queue and
//     returns the simulated cost.
//
// Both report by value: a hook handed a *Result through a func value
// would force every Schedule's Result to the heap (trap (a) in the
// package doc).
func NewBalancer(env *Env, topo *Topology,
	candidate func(victim, cpu int) Result, refile func(t *task.Task, cpu int) uint64) Balancer {
	if topo == nil {
		topo = FlatTopology(env.NCPU)
	}
	return Balancer{
		Len:       make(QueueLens, env.NCPU),
		env:       env,
		topo:      topo,
		candidate: candidate,
		refile:    refile,
		since:     make([]int, env.NCPU),
		steals:    make([]CPUSteals, env.NCPU),
	}
}

// DomainSteals reports tasks the balancer moved within and across cache
// domains, machine-wide (the PerCPUSteals sum; only o1's and cfs's benchmark
// seams read it). A domain-blind balancer sees one flat domain, so its
// moves all count as intra-domain; the machine-level CrossDomainMigrations
// stat records what they really cost.
func (b *Balancer) DomainSteals() (intra, cross uint64) {
	for _, s := range b.steals {
		intra += s.Intra
		cross += s.Cross
	}
	return intra, cross
}

// PerCPUSteals returns a copy of the per-CPU steal counters, indexed by
// the stealing CPU: o1's and cfs's Ops.Steals, which schedtrace renders
// per domain and RunCell sums.
func (b *Balancer) PerCPUSteals() []CPUSteals {
	return append([]CPUSteals(nil), b.steals...)
}

// take asks the policy for the task cpu should take from victim, folds the
// scan's cost into res and counts a found task as a move by cpu.
func (b *Balancer) take(victim, cpu int, res *Result) *task.Task {
	r := b.candidate(victim, cpu)
	res.Examined += r.Examined
	res.Cycles += r.Cycles
	if r.Next == nil {
		return nil
	}
	if b.topo.SameDomain(cpu, victim) {
		b.steals[cpu].Intra++
	} else {
		b.steals[cpu].Cross++
	}
	return r.Next
}

// busiest returns the longest queue other than cpu's holding more than
// floor tasks, inside cpu's domain (local) or outside it, or -1. Ties go
// to the lowest index.
func (b *Balancer) busiest(cpu, floor int, local bool) int {
	victim := -1
	for i, n := range b.Len {
		if n > floor && i != cpu && b.topo.SameDomain(i, cpu) == local {
			floor, victim = n, i
		}
	}
	return victim
}

// Steal is the idle-balance path: cpu's queue holds nothing it can run, so
// take a task from another queue. The returned task is still filed on its
// victim's queue (t.QIndex); what becomes of it is the policy's business.
// Victims inside cpu's cache domain are exhausted before any cross-domain
// queue is touched, and a cross-domain steal additionally requires the
// victim to hold at least crossStealMin tasks (an imbalance of one does
// not justify paying the interconnect refill).
func (b *Balancer) Steal(cpu int, res *Result) *task.Task {
	if t := b.stealTier(cpu, res, true); t != nil || b.topo.NumDomains() == 1 {
		return t
	}
	return b.stealTier(cpu, res, false)
}

// stealTier hunts one tier of the hierarchy: cpu's own domain (local) or
// the rest of the machine. The longest queue is tried first, but a queue
// full of pinned tasks must not end the hunt while a shorter queue holds
// stealable work, so the remaining queues are tried in index order. Each
// victim tried costs its queue lock.
func (b *Balancer) stealTier(cpu int, res *Result, local bool) *task.Task {
	floor := 0
	if !local {
		floor = crossStealMin - 1
	}
	first := b.busiest(cpu, floor, local)
	if first < 0 {
		return nil
	}
	res.Cycles += b.env.Cost.LockOp
	if t := b.take(first, cpu, res); t != nil {
		return t
	}
	for i, n := range b.Len {
		if n <= floor || i == cpu || i == first || b.topo.SameDomain(i, cpu) != local {
			continue
		}
		res.Cycles += b.env.Cost.LockOp
		if t := b.take(i, cpu, res); t != nil {
			return t
		}
	}
	return nil
}

// Tick counts one schedule() on cpu and, every BalanceEvery of them, runs
// the periodic half of 2.5's load_balance.
func (b *Balancer) Tick(cpu int, res *Result) {
	if b.since[cpu]++; b.since[cpu] >= BalanceEvery {
		b.since[cpu] = 0
		b.pull(cpu, res)
	}
}

// pull evens cpu's queue against the busiest one: an in-domain victim
// balanceImbalance tasks ahead loses one task; with no in-domain
// imbalance, a cross-domain victim is considered only past the larger
// crossImbalance gap, and then a batch moves at once — one decisive
// rebalance amortizes the per-task interconnect refill that would
// otherwise recur every balancing period. The victim's lock is charged
// once for the whole batch, and every move is reported to the kernel.
func (b *Balancer) pull(cpu int, res *Result) {
	n := b.Len[cpu]
	victim, batch := b.busiest(cpu, n+balanceImbalance-1, true), 1
	if victim < 0 {
		if b.topo.NumDomains() == 1 {
			return
		}
		if victim = b.busiest(cpu, n+crossImbalance-1, false); victim < 0 {
			return
		}
		// The gap is crossImbalance or more, so half of it is never below 2.
		batch = min((b.Len[victim]-n)/2, crossBatch)
	}
	res.Cycles += b.env.Cost.LockOp
	for ; batch > 0; batch-- {
		t := b.take(victim, cpu, res)
		if t == nil {
			return
		}
		res.Cycles += b.refile(t, cpu)
		b.env.Requeued(t)
	}
}
