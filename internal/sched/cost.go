package sched

// The one simulated clock: every machine is the paper's 400 MHz testbed
// with HZ=100. The cost model below and the policies' tick-denominated
// constants are calibrated against these two, so they are not knobs.
const (
	// Hz is the simulated CPU clock rate in cycles per second.
	Hz = 400_000_000
	// TickCycles is the timer interrupt period: 10 ms.
	TickCycles = Hz / 100
)

// CostModel assigns simulated cycle costs to scheduler operations. The
// simulated machine is a 400 MHz Pentium II-class SMP (the paper's IBM
// Netfinity 5500/7000), where a load that misses both caches costs on the
// order of 10^2 cycles. The constants below are calibrated so that the
// stock scheduler spends roughly the paper's Figure 5 magnitudes
// (~10-20k cycles per schedule() under VolanoMark load) and the light-load
// experiments show scheduler cost in the noise. Only relative shapes are
// claimed, never absolute equality with the paper's hardware.
type CostModel struct {
	// ScheduleBase is the fixed overhead of entering schedule():
	// bottom-half processing, administrative work, function prologue.
	ScheduleBase uint64

	// GoodnessCost is the pure computation of goodness() for one task.
	GoodnessCost uint64

	// ExamineCost is the per-task overhead of walking to and touching a
	// task_struct on the run queue — dominated by cache misses on the
	// pointer chase, which is what makes the O(n) scan expensive.
	ExamineCost uint64

	// CoherencePenalty is the extra per-task cost of the scan on a
	// multiprocessor: the run-queue links and task fields are dirtied by
	// whichever CPU last scheduled, so every touch is a cache-coherence
	// miss. This is a first-order reason the stock scheduler's 4P
	// cycles-per-schedule in Figure 5 is roughly double its UP number.
	CoherencePenalty uint64

	// RecalcPerTask is the per-task cost of the counter recalculation
	// loop ("recalculating the counter values of all tasks in the
	// system"), including the tasklist walk.
	RecalcPerTask uint64

	// AddRunqueue / DelRunqueue / MoveRunqueue are the list surgery
	// costs. ELSC's table indexing makes its adds slightly dearer.
	AddRunqueue  uint64
	DelRunqueue  uint64
	MoveRunqueue uint64

	// TableIndexCost is the extra cost ELSC pays in add_to_runqueue to
	// compute the list index and maintain top/next_top.
	TableIndexCost uint64

	// BitmapOp is one priority-bitmap operation of the O(1) scheduler:
	// a find-first-set over one word, or setting/clearing a level bit.
	// Cheap by construction — the point of that design is that the pick
	// path costs a few of these instead of a per-task scan.
	BitmapOp uint64

	// LockOp is the uncontended cost of acquiring+releasing the
	// run-queue spinlock once.
	LockOp uint64

	// ContextSwitch is switch_to: register state, kernel stack swap.
	ContextSwitch uint64

	// MMSwitch is the extra cost of switching address spaces (CR3
	// reload, TLB flush) when the next task has a different mm.
	MMSwitch uint64

	// CacheRefillMax caps the cache-refill penalty charged to a task
	// dispatched on a CPU whose cache no longer holds its working set.
	// The 15-point affinity bonus exists to dodge exactly this cost.
	CacheRefillMax uint64

	// CacheRefillPerWork scales pollution into penalty: penalty =
	// min(CacheRefillMax, pollution/CacheRefillPerWork) where pollution
	// is the cycles other tasks ran on that CPU since this task left it.
	CacheRefillPerWork uint64

	// CrossDomainRefillMax is the refill cost of a migration that leaves
	// the task's cache domain: the working set must be pulled through
	// the interconnect from a foreign last-level cache or remote memory,
	// so it dwarfs the intra-domain CacheRefillMax. This is what makes
	// topology-blind balancing expensive on the NUMA-style specs and
	// what the o1 scheduler's hierarchical steal exists to avoid.
	CrossDomainRefillMax uint64

	// RemoteAccessPct is the sustained cost of NUMA-style domains: a
	// task executing on a CPU outside the domain that holds its memory
	// runs this percent slower (every load crosses the interconnect),
	// until its pages rehome. The one-shot refill above is the cost of
	// arriving; this is the cost of staying.
	RemoteAccessPct uint64

	// RehomeCycles is how many cycles a task must execute consecutively
	// in one foreign domain before its pages migrate there and the
	// remote-access penalty stops — the AutoNUMA-style page-migration
	// horizon.
	RehomeCycles uint64

	// MaxSleepAvg is the ceiling on a task's sleep_avg interactivity
	// credit, in cycles. It lives in the cost model so the kernel's
	// wake-side clamp and any policy's bonus mapping read the same
	// ceiling: bonus = sleep_avg relative to this value. The default is
	// five timer ticks (50 ms at 400 MHz): one ordinary blocking stretch
	// (a few ms) moves the bonus a whole step, so a sleeper separates
	// from a hog within its first wake cycle, and a quarter quantum of
	// blocked time marks a task fully interactive.
	MaxSleepAvg uint64

	// SleepAvgOp is the bookkeeping cost of one sleep_avg update on the
	// wake path (a load, an add, a clamp against the task's cache line).
	SleepAvgOp uint64

	// SyscallBase is the fixed user/kernel crossing cost (int 0x80,
	// register save, dispatch).
	SyscallBase uint64

	// WakeupCost is try_to_wake_up minus the run-queue ops: state
	// check, reschedule_idle scan.
	WakeupCost uint64

	// TickCost is the timer interrupt path charged to the running task.
	TickCost uint64
}

// DefaultCostModel returns the calibrated model described above.
func DefaultCostModel() CostModel {
	return CostModel{
		ScheduleBase:         600,
		GoodnessCost:         25,
		ExamineCost:          70,
		CoherencePenalty:     250,
		RecalcPerTask:        45,
		AddRunqueue:          80,
		DelRunqueue:          60,
		MoveRunqueue:         90,
		TableIndexCost:       70,
		BitmapOp:             20,
		LockOp:               60,
		ContextSwitch:        400,
		MMSwitch:             900,
		CacheRefillMax:       6000,
		CacheRefillPerWork:   40,
		CrossDomainRefillMax: 30000,
		RemoteAccessPct:      200,
		RehomeCycles:         20_000_000,
		MaxSleepAvg:          20_000_000,
		SleepAvgOp:           15,
		SyscallBase:          700,
		WakeupCost:           500,
		TickCost:             500,
	}
}

// Touch is the cost of reaching one run-queue entry on a machine with ncpu
// processors, including the coherence miss on a multiprocessor. (Pointer
// receivers: the model is 23 words, and the policies call these once per
// candidate in their scans.)
func (c *CostModel) Touch(ncpu int) uint64 {
	t := c.ExamineCost
	if ncpu > 1 {
		t += c.CoherencePenalty
	}
	return t
}

// Evaluate is Touch plus the goodness computation.
func (c *CostModel) Evaluate(ncpu int) uint64 { return c.Touch(ncpu) + c.GoodnessCost }
