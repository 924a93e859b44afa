// Package task defines the simulated Linux task structure, mirroring the
// fields of 2.3.99-pre4's struct task_struct that matter to scheduling
// (the paper's Table 1):
//
//	volatile long      state
//	unsigned long      policy
//	long               counter
//	long               priority
//	struct mm_struct   *mm
//	struct list_head   run_list
//	int                has_cpu
//	int                processor
//
// plus rt_priority for real-time tasks. As in the paper, "task" means any
// thread in the system; Linux's one-to-one model makes no distinction
// between a user thread and a kernel thread.
//
// run_list is index-linked (package klist): RunList holds its neighbours'
// slots in a Table, which numbers a task the first time a policy files it,
// and next != 0 is still "on the run queue". Going from a slot back to its
// task, which took a type assertion on an owner pointer, is a load from
// the table (Table.First, Table.Next). A task carries no pointer to
// whoever created it: the kernel finds a task's proc in its proc table, by
// pid.
package task

import (
	"fmt"

	"elsc/internal/klist"
)

// State is the task run state. Only Running tasks may sit on the run queue.
type State uint8

// The six task states of 2.3.99 (TASK_RUNNING etc.). Only the ones the
// scheduler inspects get distinct behavior here; the rest exist for
// fidelity of the task model.
const (
	Running State = iota // TASK_RUNNING: runnable (possibly executing)
	Interruptible
	Uninterruptible
	Zombie
	Stopped
	Swapping
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Interruptible:
		return "interruptible"
	case Uninterruptible:
		return "uninterruptible"
	case Zombie:
		return "zombie"
	case Stopped:
		return "stopped"
	case Swapping:
		return "swapping"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Policy is the scheduling class: SCHED_OTHER for normal timesharing
// tasks, SCHED_FIFO and SCHED_RR for real-time tasks.
type Policy uint8

const (
	// Other is SCHED_OTHER, the default timesharing policy.
	Other Policy = iota
	// FIFO is SCHED_FIFO: real-time, runs until it blocks or yields.
	FIFO
	// RR is SCHED_RR: real-time round robin on rt_priority.
	RR
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Other:
		return "SCHED_OTHER"
	case FIFO:
		return "SCHED_FIFO"
	case RR:
		return "SCHED_RR"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Priority bounds for SCHED_OTHER tasks (paper §3.1: "an integer between 1
// and 40. Higher numbers represent higher priority. Twenty is the default").
const (
	MinPriority     = 1
	MaxPriority     = 40
	DefaultPriority = 20

	// MaxCounter is the cap on a task's counter: "Counter ... can range
	// from zero to twice the task's priority."
	maxCounterFactor = 2

	// MinRTPriority and MaxRTPriority bound rt_priority ("it ranges from
	// 0 to 99 and is stored in a separate field called rt_priority").
	MinRTPriority = 0
	MaxRTPriority = 99
)

// MM models struct mm_struct: the address space a task runs in. Tasks
// sharing an MM are threads of the same process; the scheduler pays a
// cheaper context switch between them and goodness() awards a one point
// bonus (paper §3.3.1).
type MM struct {
	ID   int
	Name string
}

// Task is the simulated task structure. Its fields are ordered for the
// host's cache, not as Table 1 lists them: the first 64 bytes are what
// filing, dequeueing and a queue scan's can_schedule test read, and a
// Task is 192 bytes, a size class whose objects start on a cache line.
type Task struct {
	// RunList is the run_list list_head linking the task into a run
	// queue (the single list for the stock scheduler, one of the 30
	// table lists for ELSC): its neighbours' slots in the Table of the
	// policy's Env, and slot is the task's own there, 0 until it is
	// first filed.
	RunList klist.Node
	slot    uint32

	State  State
	Policy Policy
	// HasCPU is 1 while the task executes on a processor (paper §3.1).
	HasCPU bool
	// IsIdle marks the per-CPU idle task. Idle tasks are never placed on
	// a run queue and never win a goodness comparison; an empty run
	// queue "will schedule the idle task rather than trigger the
	// recalculation" (paper footnote 1).
	IsIdle bool

	// Priority is the static SCHED_OTHER priority (1..40, default 20).
	Priority int

	// counter is the remaining quantum in 10ms ticks, lazily synced to
	// the global recalculation epoch (see Epoch).
	counter      int
	counterEpoch uint64

	// Scheduler-private bookkeeping, the analogue of the policy-specific
	// fields Linux keeps inside task_struct. None of the three says whether
	// the task is queued — that is RunList (OnRunqueue) under every policy —
	// and each policy writes what it uses when it files the task, before it
	// reads it, so values left by a previous policy are never seen. QIndex
	// is contract under sched.VisibleOwner: the CPU whose queue holds the
	// queued task, which the kernel reads for delivery and locking.
	// Otherwise it is the policy's own (ELSC's table list, heap's position),
	// as QStamp always is (ELSC's tag epoch, heap's heap id, o1's array and
	// level, cfs's level or heap position). QZero is ELSC's zero-section
	// tag and nothing else.
	QIndex int
	QStamp uint64

	// CPUsAllowed is the processor affinity mask (2.3.99's cpus_allowed,
	// consulted by can_schedule). Zero means "all CPUs"; bit i allows
	// CPU i.
	CPUsAllowed uint64

	// Yielded is the SCHED_YIELD bit carried in the policy field: set by
	// sys_sched_yield, consumed by the scheduler.
	Yielded bool
	// EverRan records whether the task has ever been dispatched, so the
	// affinity bonus is not granted against the zero-value Processor.
	EverRan bool
	// QZero is ELSC's zero-section tag (with QIndex and QStamp above).
	QZero bool
	// Processor is the CPU the task is executing on, or last executed on
	// (the scheduler's affinity bonus compares against it).
	Processor int
	// MM is the address space; nil for kernel threads.
	MM *MM
	// RTPriority is the real-time priority (0..99) for FIFO/RR tasks.
	RTPriority int

	// sleepAvg is the Linux 2.5-style interactivity estimator: cycles of
	// credit accumulated while the task is blocked (CreditSleep, called by
	// the kernel's wake path) and drained 1:1 while it executes (DrainRun,
	// called by the kernel's work accounting). The kernel clamps the
	// credit at the cost model's MaxSleepAvg; policies map the ratio
	// sleepAvg/MaxSleepAvg onto a dynamic-priority bonus. A task that
	// sleeps most of the time rides at the ceiling, a CPU hog at zero.
	sleepAvg uint64

	// VRuntime is the weighted virtual runtime maintained by the fair
	// (cfs) policy: executed cycles scaled by 1024/weight, so heavier
	// tasks age slower. Like sleepAvg it is time accounting, not queue
	// state, and the fair policy's placement clamp bounds any staleness a
	// task picks up while blocked or parked under another policy.
	VRuntime uint64

	ID   int
	Name string

	// Accounting, maintained by the kernel.
	UserCycles   uint64 // cycles spent in task (user) work
	SystemCycles uint64 // cycles charged for syscalls on its behalf
	Dispatches   uint64 // times chosen by schedule()
	Migrations   uint64 // dispatches on a CPU != previous CPU
	VolSwitches  uint64 // blocked or yielded
	InvSwitches  uint64 // preempted or quantum expired
}

// New returns a SCHED_OTHER task with default priority and a full quantum,
// in the Running state but not yet on any run queue.
func New(id int, name string, mm *MM, ep *Epoch) *Task {
	t := &Task{
		ID:       id,
		Name:     name,
		State:    Running,
		Policy:   Other,
		Priority: DefaultPriority,
		MM:       mm,
	}
	if ep != nil {
		t.counterEpoch = ep.N()
	}
	t.counter = t.Priority
	return t
}

// NewRT returns a real-time task with the given policy and rt_priority.
func NewRT(id int, name string, policy Policy, rtprio int, ep *Epoch) *Task {
	if policy != FIFO && policy != RR {
		panic("task: NewRT requires FIFO or RR policy")
	}
	if rtprio < MinRTPriority || rtprio > MaxRTPriority {
		panic("task: rt_priority out of range")
	}
	t := New(id, name, nil, ep)
	t.Policy = policy
	t.RTPriority = rtprio
	return t
}

// RealTime reports whether the task is SCHED_FIFO or SCHED_RR.
func (t *Task) RealTime() bool { return t.Policy == FIFO || t.Policy == RR }

// Runnable reports whether the task is in TASK_RUNNING state.
func (t *Task) Runnable() bool { return t.State == Running }

// MaxCounter returns the cap on this task's counter (twice its priority).
func (t *Task) MaxCounter() int { return maxCounterFactor * t.Priority }

// Counter returns the remaining quantum in ticks after syncing any pending
// global recalculations from ep. The "epoch already current" case — every
// visit of a run-queue scan but the first after a recalculation — is an
// inlined compare; only a stale task calls into SyncCounter.
func (t *Task) Counter(ep *Epoch) int {
	if ep != nil && t.counterEpoch != ep.n {
		t.SyncCounter(ep)
	}
	return t.counter
}

// RawCounter returns the stored counter without epoch syncing. Intended
// for tests and diagnostics only.
func (t *Task) RawCounter() int { return t.counter }

// SetCounter stores the counter and stamps it current with respect to ep.
func (t *Task) SetCounter(ep *Epoch, v int) {
	if v < 0 {
		v = 0
	}
	t.counter = v
	if ep != nil {
		t.counterEpoch = ep.N()
	}
}

// TickDecrement consumes one tick of quantum. The caller must only invoke
// it on the running task. A recalculation performed by another processor
// must not refill the quantum this task was dispatched with: on a busy SMP
// machine every remote expiry can trigger a recalc, and applying
// counter/2+priority to the running task mid-quantum postpones its own
// expiry indefinitely — a queued task pinned to this CPU then starves
// behind an endlessly recharged hog (fuzzer seed 90875). So pending epochs
// are absorbed without the refill; the task picks up recharges the next
// time it is evaluated on a queue. Returns the new counter value.
func (t *Task) TickDecrement(ep *Epoch) int {
	if ep != nil {
		t.counterEpoch = ep.N()
	}
	if t.counter > 0 {
		t.counter--
	}
	return t.counter
}

// SyncCounter applies any recalculations that happened since the task was
// last touched: each global recalculation performs
//
//	counter = counter/2 + priority
//
// for every task in the system (2.3.99 schedule()'s recalculate loop). The
// recurrence reaches its fixed point (2*priority or 2*priority-1) within
// about 8 applications for any in-range start, so the loop is bounded even
// if thousands of epochs elapsed while the task slept.
func (t *Task) SyncCounter(ep *Epoch) {
	if ep == nil {
		return
	}
	n := ep.N()
	pending := n - t.counterEpoch
	if pending == 0 {
		return
	}
	// After the counter reaches a fixed point of c = c/2 + p further
	// applications change nothing; cap the work.
	const maxApply = 16
	if pending > maxApply {
		pending = maxApply
	}
	for i := uint64(0); i < pending; i++ {
		next := t.counter/2 + t.Priority
		if next == t.counter {
			break
		}
		t.counter = next
	}
	if max := t.MaxCounter(); t.counter > max {
		t.counter = max
	}
	t.counterEpoch = n
}

// SleepAvg returns the accumulated interactivity credit in cycles.
func (t *Task) SleepAvg() uint64 { return t.sleepAvg }

// CreditSleep adds slept cycles of blocked time to the interactivity
// estimator, clamped at max — the wake-side accounting hook.
func (t *Task) CreditSleep(slept, max uint64) {
	t.sleepAvg += slept
	if t.sleepAvg > max {
		t.sleepAvg = max
	}
}

// DrainRun consumes ran cycles of executed work from the interactivity
// estimator (floor zero) — the run-side accounting hook.
func (t *Task) DrainRun(ran uint64) {
	if ran >= t.sleepAvg {
		t.sleepAvg = 0
		return
	}
	t.sleepAvg -= ran
}

// PredictedCounter returns the counter value the task will have after the
// next global recalculation, without applying it. ELSC's
// add_to_runqueue uses this to pre-index exhausted tasks (paper §5.1).
func (t *Task) PredictedCounter(ep *Epoch) int {
	c := t.Counter(ep)
	v := c/2 + t.Priority
	if max := t.MaxCounter(); v > max {
		v = max
	}
	return v
}

// StaticGoodness is counter + priority: the part of goodness() that does
// not depend on which task and processor call schedule() (paper §5).
func (t *Task) StaticGoodness(ep *Epoch) int {
	return t.Counter(ep) + t.Priority
}

// OnRunqueue reports whether the kernel considers the task on the run
// queue. Following the kernel convention the paper describes, this is
// "run_list.next != NULL" — which remains true for a task ELSC has manually
// pulled out of its table list while it runs (footnote 3), and is how the
// heap-holding policies (heap, cfs) mark a task they file in no list. It is
// the only membership test: policies guard on it, the kernel reads it.
func (t *Task) OnRunqueue() bool { return t.RunList.OnList() }

// AllowedOn reports whether the affinity mask permits running on cpu.
// An unset (zero) mask allows every processor.
func (t *Task) AllowedOn(cpu int) bool {
	return t.CPUsAllowed == 0 || t.CPUsAllowed&(1<<uint(cpu)) != 0
}

// String implements fmt.Stringer for debugging and traces.
func (t *Task) String() string {
	return fmt.Sprintf("task%d(%s)", t.ID, t.Name)
}

// Epoch counts global counter recalculations. Incrementing the epoch is the
// O(1) stand-in for the kernel's "recalculate counter for every task in the
// system" loop; tasks lazily apply pending recalculations when touched.
// The simulated cycle cost of the loop is charged separately by the
// scheduler that triggers it.
type Epoch struct {
	n uint64
}

// N returns the current epoch number.
func (e *Epoch) N() uint64 { return e.n }

// Bump advances the epoch by one: one global recalculation.
func (e *Epoch) Bump() { e.n++ }

// Table numbers the tasks run lists link. A task takes the next slot the
// first time it is filed on a list and keeps it; a list is a klist.Head
// over the table's slots, and going from a slot back to its task is a load
// from tasks, not a type assertion on an owner pointer. Each sched.Env
// holds one, shared by every policy built on it, and a task is filed under
// one table only. The zero value is an empty table.
//
// A list operation on t is a klist one on Link(t) over Nodes():
//
//	n, i := tasks.Link(t)
//	tasks.Nodes().PushFront(h, n, i)
//
// Both calls and the klist operation inline, so filing a task costs no
// call, as with the pointer-linked list this replaced.
type Table struct {
	nodes klist.Table // slot -> &task.RunList
	tasks []*Task     // slot -> task; nil at 0 and klist.End
}

// Link returns t's run-list node and its slot, numbering t the first time.
func (tb *Table) Link(t *Task) (*klist.Node, uint32) {
	if t.slot == 0 {
		tb.number(t)
	}
	return &t.RunList, t.slot
}

// number gives t the next slot. It runs once per task, so it stays out of
// line and leaves Link small enough to inline.
//
//go:noinline
func (tb *Table) number(t *Task) {
	if len(tb.tasks) == 0 {
		tb.tasks = append(tb.tasks, nil, nil) // slots 0 and klist.End
	}
	t.slot = tb.nodes.Add(&t.RunList)
	tb.tasks = append(tb.tasks, t)
}

// Nodes returns the klist table over tb's slots.
func (tb *Table) Nodes() klist.Table { return tb.nodes }

// First returns the task at the front of h, or nil if h is empty.
func (tb *Table) First(h *klist.Head) *Task {
	if h.Empty() {
		return nil
	}
	return tb.tasks[h.First()]
}

// Next returns the task after t on its list, or nil if t is the last or
// is off list: the table holds nil at klist.End and at 0.
func (tb *Table) Next(t *Task) *Task { return tb.tasks[t.RunList.Next()] }
