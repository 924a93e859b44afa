// Package sched defines the contract between the simulated kernel and a
// scheduling policy, the shared goodness() heuristic from Linux
// 2.3.99-pre4, and the cycle-cost model used to charge scheduler work to
// virtual CPU time.
//
// The interface is the kernel's side of the paper's §5.1 surface:
// add_to_runqueue, del_from_runqueue and Schedule itself, under the kernel's
// own names. Keeping it identical to the kernel's means the stock
// scheduler, ELSC, and the future-work alternatives are drop-in
// replacements for one another, which is design goal 1 of the paper ("Keep
// changes local to the scheduler. Do not change current interfaces"). The
// other two functions §5.1 names, move_first_runqueue and
// move_last_runqueue, were static inline helpers inside kernel/sched.c —
// scheduler-internal already — and are no part of the contract here: where
// a task sits among its equals is decided where it is filed. AddToRunqueue
// files a wake-up (and the re-file that follows a class or priority change)
// ahead of its equals under the list policies; each policy's Schedule files
// the prev it was handed, and sends a SCHED_RR prev whose quantum just
// expired behind its rt_priority equals (reg, elsc and mq by one MoveBack on
// the list, o1 and cfs by a tail push, heap by a fresh arrival number).
//
// The whole contract is the seven methods of Scheduler, one field test and
// one optional table, Ops.
// "Is it queued?" is never asked of the policy: a task is on the run queue
// exactly when run_list.next != NULL (task.OnRunqueue, the paper's
// footnote 3), under every policy. One that files a task in a list gets
// that from the link; ELSC keeps it set on the running task it pulled out
// of its table; heap and cfs set it on a task they hold in an array heap
// (klist.Node.MarkQueued). The policy's "already queued" guards and the
// kernel's delivery rule read the same word. The three policy tags on the
// task (task.Task lists them) are then private scratch that every policy
// writes at enqueue before it reads them, so a task crosses a hot policy
// swap or a hotplug re-file carrying whatever its last policy left there
// and nobody looks — with the one declared exception that under
// VisibleOwner QIndex names the owning CPU.
//
// Everything a policy offers beyond the seven is Ops, a table of optional
// capabilities in the shape of sched_ext's callback table, nil where the
// policy has none. OpsOf resolves it from the method set of the value the
// factory returned, and is the one place that type-asserts a policy: the
// kernel resolves it at every install (boot and SwitchPolicy), and the
// harness and the tools read the installed table (kernel.Machine.Ops). It
// is not a method that returns the policy's own table because a decorator
// that embeds a policy and overrides one method (a timing wrapper's
// PlaceWake) must be what the kernel calls; a table the bare policy built
// would bind its own method and pass the override by without a sound.
//
// Two costs, kept apart. The simulated cost of a decision is what CostModel
// charges to virtual CPU time — cycles per task examined, per recalculation,
// per list operation; it is the paper's subject and part of every result.
// The host cost is the wall-clock time the simulator itself spends in
// Schedule; it is nobody's result, only this repo's running time, and it
// may be lowered in any way that leaves every simulated decision, charge and
// Examined count alone. Goodness is the case in point: on an SMP chat load
// its inputs (same mm as prev? last ran here? quantum left?) are close to
// coin flips from one queued task to the next, so the natural if-per-rule
// form cost the host a mispredicted jump or two per visit — more than the
// arithmetic. It is therefore written branch-free; the branching form is
// the oracle it is tested against exhaustively (goodnessOracle in
// sched_test.go). Do not "simplify" it back. The stock scheduler is the
// other case: it still charges its full O(n) walk, every Examined and
// every Cycle, but on the host it scores only the tasks whose static
// goodness can reach the best one found (package vanilla's doc), and the
// walk it no longer does is the oracle FuzzRegIndex holds it to. The
// count of goodness evaluations was the host cost there, not how the run
// queue is linked.
//
// # The per-CPU-queue substrate
//
// mq, o1 and cfs give every processor a private queue (VisibleOwner), and
// what such a policy needs besides its own queue structure is the same
// each time, so it is stated once, in percpu.go. A policy gets:
//
//   - QueueLens, the queued-task count per CPU, with Home — the one
//     placement rule: last CPU if allowed and online, else the least-loaded
//     allowed online queue, else the first online one — and Total;
//   - LevelArray, the 2.5 prio_array (find-first-set bitmap, one FIFO list
//     per level, count) with Push, Remove, Next, Pick — the first task a
//     CPU may run, charging BitmapOp per level and Touch per task — and
//     Drain; o1 runs two per queue at 140 levels (100 real-time, then 40
//     SCHED_OTHER), cfs one at the 100 real-time levels alone (reg, the
//     one VisibleAll user, one at 161: its static-goodness index);
//   - CanSchedule, the kernel's can_schedule filter;
//   - Balancer: the idle steal (Steal), tiered by cache domain, the
//     periodic pull (Tick, every BalanceEvery schedules), and the per-CPU
//     intra/cross counters behind Ops.Steals.
//
// The policy supplies its queues and exactly two hooks to NewBalancer:
// candidate, "the task on victim's queue this CPU should take first, left
// queued" (o1: expired array before active; cfs: best real-time, then
// minimum vruntime), and refile, "move it to the tail of this CPU's queue
// and say what that cost" (o1: MoveRunqueue + BitmapOp; cfs: vruntime
// renorm, MoveRunqueue + log n). It bumps Balancer.Len at its enqueue and
// its dequeue. What becomes of a stolen task stays in the policy's
// Schedule: o1 dequeues it where it waits, cfs re-homes it first. mq keeps
// its own goodness-scan steal and uses QueueLens and CanSchedule only.
//
// Four shapes in there are host-cost decisions, each measured on the
// repo benchmark — (a) and (b) when the substrate was extracted, (c) when
// the real-time levels went on demand, (d) when the run lists became
// index-linked (parent → variant):
//
//   - (a) The hooks return their scan's Examined and Cycles by value, in a
//     Result. A hook that takes the caller's *Result through a func value
//     or an interface makes escape analysis send every Schedule's Result
//     to the heap: alloc_mb 4.22 → 57.5 MB on volano_numa, 0.80 → 23.3 MB
//     on hogs_segments, volano_numa run_s 1.89 → 2.11 s.
//     conformance.TestBalancerPathsAllocFree fails on it.
//   - (b) The queue lengths are plain state the policy bumps, not a method
//     the balancer calls: asking the policy through an interface inside
//     the idle-steal scan (~100 dynamic calls per idle schedule() on 32
//     CPUs) cost matrix_quick run_s +4…6% in four of five comparisons.
//   - (c) A LevelArray's lists are two segments with two owners. The
//     SCHED_OTHER levels are storage inside the policy's queue set, handed
//     to Init (o1: 40 heads per array, allocated with its run queues; cfs:
//     none). The RTLevels real-time levels are the array's own, one slice
//     made by the first push below RTLevels and kept; every reader reaches
//     a level through the bitmap or a task's stamp, so none touches a
//     segment that is not there, and the push path pays one compare. A
//     census over the registry (AllSpecs x Policies x workload.Names(),
//     324 cells) counted the real-time tasks ever filed on a LevelArray:
//     0 of 1,965,051 events at QuickScale and 0 of 496,682,720 at
//     DefaultScale (experiments.TestRegistrySpawnsNoRealTimeTask keeps it
//     so) — yet with every list built at boot those levels were 100 of
//     o1's 140 and all of cfs's 100, at 48 bytes a head: 472 → 160 KB per
//     32-CPU o1 boot, 194 → 35 KB for cfs, and on matrix_quick setup_s
//     0.065 → 0.038 s (10 of 10 pairs), alloc_mb 134 → 77, live_heap_mb
//     0.64 → 0.33, run_s flat (experiments.TestBootAllocBudget holds the
//     bytes).
//     Two neighbours measured worse: a 16-byte sentinel-free klist.Head
//     cut alloc_mb about as far (134 → 86) but cost every Del+Add 3-5 ns
//     (reg 7.6 → 11.1, o1 21.5 → 26.8, elsc 13.2 → 16.5); slab-allocating
//     CPUs, idle tasks and procs raised alloc_mb 77 → 91.5 and left
//     setup_s where it was. Giving every array o1's 140 levels (caller
//     storage, cfs included) had cost alloc_mb +5.4% on matrix_quick.
//   - (d) Every run list links slots of the Env's task table (Env.Tasks):
//     an 8-byte klist.Node and an 8-byte zero-value klist.Head where they
//     were 40 and 48 bytes, so o1's 80 SCHED_OTHER heads per CPU cost 640
//     bytes, not 3,840, and a 32-CPU o1 boot 52 KB, not 160 (with Task
//     256 → 192 bytes). The head is first and last slot alone, like the
//     kernel's hlist_head: with a length too it was 12 bytes, 960 per CPU
//     and 68 KB per boot, and the 32-CPU run-queue array sat just past the
//     32 KB large-object line, rounded up to five pages. What kept the sentinel-free head of (c)'s first
//     neighbour from costing its 3-5 ns per Del+Add again is that no list
//     operation is a call: klist's End is a scratch slot in every table,
//     so a splice writes both neighbours' links without asking whether
//     they are list ends, klist.Table.Remove and PushFront fit the
//     inliner's budget, and a policy files a task with task.Table.Link
//     (also inlined; a task's first slot is numbered out of line) plus the
//     klist operation, not through a wrapper that would not inline. The
//     Task's first cache line holds what filing reads. What the indices
//     still cost is a walk's step: a successor's slot, then the table's
//     entry for it, one dependent load more than a pointer chase. That
//     shows only where a walk is long and misses cache (reg's micro
//     Schedule at 1024 queued tasks), not on a benchmark workload.
package sched

import (
	"math/bits"

	"elsc/internal/task"
)

// Goodness weights from 2.3.99-pre4 (paper §3.3.1).
const (
	// RTBase is added to rt_priority for real-time tasks: "goodness()
	// returns 1000 plus the value stored in the task's rt_priority".
	RTBase = 1000
	// AffinityBonus is the "somewhat larger (15 point) bonus ... given
	// to tasks whose last run was on the current processor".
	AffinityBonus = 15
	// MMBonus is the "small, one point advantage ... given to tasks that
	// share memory maps".
	MMBonus = 1
)

// Goodness computes the utility of running t on CPU cpu when the previous
// task's address space is prevMM — the full (static + dynamic) heuristic of
// paper §3.3.1. It does not consult the SCHED_YIELD bit; per 2.3.99, only
// the caller applies yield handling, and only for the previous task.
//
// The SCHED_OTHER path is branch-free (see the package doc for why): the
// MM bonus, the affinity bonus and "time slice used up, return 0" are 0/1
// values folded in arithmetically; the real-time test is the only jump.
func Goodness(ep *task.Epoch, t *task.Task, cpu int, prevMM *task.MM) int {
	if t.RealTime() {
		return RTBase + t.RTPriority
	}
	c := t.Counter(ep)
	return (c + t.Priority + Bonus(t, cpu, prevMM)) & -b2i(c != 0)
}

// Bonus is the dynamic part of goodness() for a SCHED_OTHER task with
// quantum left: MMBonus if t shares prev's address space, AffinityBonus if
// t last ran on cpu. It never exceeds MMBonus + AffinityBonus, the bound
// the stock scheduler's static-goodness index stops its walk on.
func Bonus(t *task.Task, cpu int, prevMM *task.MM) int {
	mm := b2i(t.MM == prevMM) & b2i(prevMM != nil)
	aff := b2i(t.EverRan) & b2i(t.Processor == cpu)
	return mm*MMBonus + aff*AffinityBonus
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag move,
// not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Result reports what one Schedule invocation did, so the kernel can charge
// cycles and accumulate the paper's statistics.
type Result struct {
	// Next is the task to run; nil means schedule the idle task.
	Next *task.Task
	// Examined counts tasks whose goodness (or eligibility) was
	// evaluated — the second chart of Figure 5.
	Examined int
	// Cycles is the simulated cost of this invocation, charged to the
	// CPU and to the run-queue lock hold time — the first chart of
	// Figure 5.
	Cycles uint64
	// Recalcs counts entries into the counter-recalculation loop during
	// this invocation — Figure 2.
	Recalcs int
}

// CPUSteals is one CPU's balancer activity: tasks its steal and pull
// paths moved onto it from queues in the same cache domain (Intra) and
// from queues across a domain boundary (Cross).
type CPUSteals struct {
	Intra uint64
	Cross uint64
}

// Visibility is the delivery half of the kernel↔policy contract: which
// CPUs' Schedule can see a queued task. The kernel owes every queued,
// charged, unclaimed task a schedule() on some CPU that can see it, and
// derives its run-queue lock model from the same declaration.
type Visibility int

const (
	// VisibleAll: every CPU's Schedule selects from all queued tasks (the
	// stock list, ELSC's table, the shared heaps), under one global lock;
	// there is one queue, 0.
	VisibleAll Visibility = iota
	// VisibleOwner: only CPU t.QIndex's Schedule is guaranteed to find t.
	// Other CPUs may steal it, but a balancer may rightly decline, so only
	// the owner counts. There is one queue per CPU, each with its own lock,
	// and QIndex is part of the contract. A policy that moves a
	// queued task to another owner outside AddToRunqueue and Schedule's
	// own prev/Next must report it through Env.Requeued.
	VisibleOwner
)

// Scheduler is a pluggable scheduling policy. Implementations are not
// thread safe; the simulated global run-queue spinlock serializes access,
// and the simulation itself is single-threaded.
type Scheduler interface {
	// Name identifies the policy in stats and tables ("reg", "elsc", ...).
	Name() string

	// Visibility declares which CPUs' Schedule can see a queued task.
	Visibility() Visibility

	// AddToRunqueue makes a runnable task eligible for selection.
	// Mirrors add_to_runqueue: newly woken tasks go to the front of
	// their list. It is also where a queued task lands after the kernel
	// changed what it is indexed by (DelFromRunqueue, change,
	// AddToRunqueue), so under the list policies a re-filed task leads
	// its new equals; heap orders equal keys by arrival.
	AddToRunqueue(t *task.Task)

	// DelFromRunqueue removes a task (it blocked, exited, or is being
	// re-indexed).
	DelFromRunqueue(t *task.Task)

	// Schedule picks the next task for cpu. prev is the task that was
	// running (never nil; the kernel passes the per-CPU idle task's
	// placeholder as a prev with State != Running when waking from
	// idle). Schedule must handle prev's yield bit, de-queue prev if it
	// is no longer runnable, trigger counter recalculation per its
	// policy, and recharge a SCHED_RR prev whose quantum expired and
	// file it behind its rt_priority equals (still ahead of every lower
	// level: an expiry is not a yield). The returned task is marked by
	// the scheduler as dequeued or in-list according to its own
	// conventions.
	Schedule(cpu int, prev *task.Task) Result

	// Runnable returns the number of tasks currently selectable
	// (on the run queue and not executing).
	Runnable() int

	// Drain removes every task filed on queue q and appends them to out
	// in a deterministic policy-defined order, each off the run queue
	// (OnRunqueue false) so a plain AddToRunqueue — on this policy or a
	// freshly built successor — files it again. The queues are the ones
	// the kernel keeps a lock for: q is 0 and means everything under
	// VisibleAll, and is a CPU under VisibleOwner. The kernel drains every
	// queue to hand the set to a successor (Machine.SwitchPolicy, which
	// detaches the running tasks itself first) and an offlined CPU's queue
	// to re-home its tasks; under VisibleAll an offlined CPU leaves nothing
	// behind that the survivors cannot reach. Implementations must not
	// allocate when out has capacity; the kernel reuses one buffer across
	// hotplug events.
	Drain(q int, out []*task.Task) []*task.Task
}

// DynamicPriority is Ops.Dynamic: policies (o1, cfs) whose dynamic
// priority is not goodness() take the three decisions the kernel otherwise
// makes with it.
type DynamicPriority interface {
	// PlaceWake accepts an SD_WAKE_IDLE placement hint: file the woken
	// task on the given idle CPU's queue instead of its home queue. False
	// declines (knob disabled, affinity forbids, task already queued), and
	// the kernel falls back to the ordinary AddToRunqueue.
	PlaceWake(t *task.Task, cpu int) bool

	// TickPreempt is consulted by the timer tick while the running task
	// still has quantum left. preempt true interrupts it; rotation
	// distinguishes o1's TIMESLICE_GRANULARITY same-level round-robin (the
	// task goes to the tail of its level) from a plain better-level or
	// vruntime-lag preemption (the task keeps its spot), so the stats
	// attribute each mechanism correctly.
	TickPreempt(cpu int, t *task.Task) (preempt, rotation bool)

	// PreemptsCurr is 2.6's TASK_PREEMPTS_CURR: whether woken task t
	// outranks a CPU's current one, by o1's bonus-laden effective
	// priorities or cfs's vruntimes instead of the 2.3.99 goodness delta.
	// This is how the interactivity estimator (or the sleeper clamp)
	// reaches wake-up preemption: a sleep-heavy task at the same static
	// priority as a hog preempts it on wake.
	PreemptsCurr(t, curr *task.Task) bool
}

// Ops is a policy's capability table: everything it offers beyond the
// seven methods of Scheduler, one field per capability, nil where it has
// none. OpsOf resolves it; sched.TestSchedulerContract pins the fields.
type Ops struct {
	// Dynamic ranks tasks by the policy's own dynamic priority (o1, cfs).
	Dynamic DynamicPriority
	// NoteRunning is told when a listed task gains or loses its CPU (reg).
	// Non-nil also declares that the policy keeps running tasks on its run
	// queue, so a policy switch hands them back to it.
	NoteRunning func(t *task.Task, running bool)
	// Steals returns a copy of the balancer's counters, indexed by the
	// stealing CPU (o1, cfs).
	Steals func() []CPUSteals
	// Bonus returns the interactivity estimator's enqueues by dynamic
	// bonus, lowest first, and the active-array requeues it granted (o1).
	Bonus func() (levels []uint64, requeues uint64)
	// Dump renders the run-queue structure (elsc: the Figure 1b table).
	Dump func() string
}

// OpsOf resolves s's capability table from the method set of s itself,
// the value the factory returned, so a decorator's override is what the
// table calls (the package doc says why).
func OpsOf(s Scheduler) (o Ops) {
	o.Dynamic, _ = s.(DynamicPriority)
	if n, ok := s.(interface{ NoteRunning(*task.Task, bool) }); ok {
		o.NoteRunning = n.NoteRunning
	}
	if r, ok := s.(interface{ PerCPUSteals() []CPUSteals }); ok {
		o.Steals = r.PerCPUSteals
	}
	if b, ok := s.(interface {
		BonusLevels() []uint64
		InteractiveRequeues() uint64
	}); ok {
		o.Bonus = func() ([]uint64, uint64) { return b.BonusLevels(), b.InteractiveRequeues() }
	}
	if d, ok := s.(interface{ Dump() string }); ok {
		o.Dump = d.Dump
	}
	return o
}

// Env is what every scheduler needs from the kernel: the recalculation
// epoch, the total task population (recalculation cost is proportional to
// it), CPU topology, and the cost model.
type Env struct {
	Epoch *task.Epoch
	// NTasks returns the number of tasks in the system (runnable or
	// not); the recalculation loop visits all of them.
	NTasks func() int
	// NCPU is the number of processors.
	NCPU int
	// SMP reports whether the kernel was built with SMP support. The
	// paper distinguishes "UP" (SMP disabled) from "1P" (SMP kernel on
	// one processor); the UP build enables ELSC's search shortcut.
	SMP bool
	// Topo is the cache-domain layout. Always non-nil; machines without
	// a declared layout get the flat single-domain topology, under which
	// no dispatch is ever cross-domain.
	Topo *Topology
	Cost CostModel
	// Requeued is how a VisibleOwner policy tells the kernel that queued
	// task t now waits on another CPU's queue (t.QIndex changed) by the
	// policy's own doing — a balancer pull. Never nil: NewEnv installs a
	// no-op, the kernel its delivery bookkeeping.
	Requeued func(t *task.Task)

	// Tasks numbers every task a policy built on this Env files on a list;
	// the policies' run lists are lists of its slots. Like the online
	// mask, it survives hot policy switches.
	Tasks task.Table

	// online is the bitmask of online CPUs (bit i == CPU i is online),
	// maintained by the kernel across hotplug events. NCPU is capped at
	// 64 by the same word-size limit as task.CPUsAllowed. The Env object
	// is shared across hot policy switches, so the mask survives them.
	online uint64
}

// NewEnv returns an Env with the given topology, a fresh epoch, and the
// default cost model. ntasks may be nil if no recalculation cost should be
// charged (unit tests).
func NewEnv(ncpu int, smp bool, ntasks func() int) *Env {
	if ntasks == nil {
		ntasks = func() int { return 0 }
	}
	return &Env{
		Epoch:    &task.Epoch{},
		NTasks:   ntasks,
		NCPU:     ncpu,
		SMP:      smp,
		Topo:     FlatTopology(ncpu),
		Cost:     DefaultCostModel(),
		Requeued: func(*task.Task) {},
		online:   ^uint64(0) >> uint(64-min(ncpu, 64)),
	}
}

// CPUOnline reports whether cpu is online. CPUs beyond the 64-bit mask
// (never created by the kernel) read as offline: shifting a uint64 by 64 or
// more, or by a negative int made unsigned, gives 0.
func (e *Env) CPUOnline(cpu int) bool { return e.online&(1<<uint(cpu)) != 0 }

// SetCPUOnline flips cpu's bit in the online mask, and by the same shift
// rule does nothing to a CPU beyond it. Called only by the kernel's
// hotplug path.
func (e *Env) SetCPUOnline(cpu int, on bool) {
	if on {
		e.online |= 1 << uint(cpu)
	} else {
		e.online &^= 1 << uint(cpu)
	}
}

// OnlineCount returns the number of online CPUs.
func (e *Env) OnlineCount() int { return bits.OnesCount64(e.online) }

// OnlineMask returns the online-CPU bitmask (bit i == CPU i online).
func (e *Env) OnlineMask() uint64 { return e.online }
