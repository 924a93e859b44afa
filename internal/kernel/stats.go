package kernel

import "elsc/internal/stats"

// Stats aggregates everything the paper measures, machine-wide. The
// per-schedule summaries (count, sum, min, max) feed Figure 5, Recalcs
// feeds Figure 2, SchedCalls and Migrations feed Figure 6, and the cycle
// totals feed the kernel-profile claim of §4 (37-55% of kernel time in
// the scheduler).
type Stats struct {
	// Scheduler behavior.
	SchedCalls            uint64        // entries into schedule()
	SchedCycles           uint64        // cycles inside schedule() proper
	SpinCycles            uint64        // cycles spinning on the run-queue lock before schedule()
	Examined              uint64        // tasks examined across all schedule() calls
	Recalcs               uint64        // counter-recalculation loop entries
	Migrations            uint64        // tasks dispatched on a CPU other than their last
	CrossDomainMigrations uint64        // migrations that also crossed a cache domain
	PerSchedule           stats.Summary // cycles per schedule() call (incl. lock spin)
	ExaminedDist          stats.Summary // tasks examined per schedule() call
	IdleSwitches          uint64        // schedule() picked the idle task
	Preemptions           uint64        // wake-up preempted a running task
	WakeCalls             uint64        // try_to_wake_up invocations
	YieldCalls            uint64        // sys_sched_yield invocations
	QuantumExpiry         uint64        // tick found the quantum exhausted
	WakeIdlePlacements    uint64        // wakes filed onto an idle CPU in the waker's cache domain
	TimesliceRotations    uint64        // granularity preemptions: same-level round-robin inside a quantum
	TickPreemptions       uint64        // tick preemptions: a better-level task was waiting on the queue

	// Context switching.
	CtxSwitches  uint64 // dispatches of a task other than prev
	MMSwitches   uint64 // dispatches that changed address space
	CacheCycles  uint64 // cache-refill penalty cycles charged
	RemoteCycles uint64 // extra wall cycles from executing outside the memory domain

	// Time split.
	TaskCycles    uint64 // user work executed
	SyscallCycles uint64 // syscall cost segments executed
	IdleCycles    uint64 // CPU time with nothing to run
	TickCycles    uint64 // timer-interrupt overhead (accounted, not timed)

	// Lock totals.
	LockAcquisitions uint64
	LockContended    uint64

	// PolicySwitches counts hot scheduler replacements (SwitchPolicy).
	PolicySwitches uint64

	// Hotplug. CPUOfflines/CPUOnlines count transitions; OfflineCycles
	// totals completed offline stretches machine-wide.
	CPUOfflines   uint64
	CPUOnlines    uint64
	OfflineCycles uint64

	// Tickless idle (NO_HZ). TicksSkipped counts timer-tick firings the
	// parked chains elided — each one an event and a TickCost the
	// pre-tickless kernel paid to find an idle CPU with nothing to do.
	// IdleTickRescues counts ticks that found a queued task stranded on
	// an idle CPU with no kick in flight: every enqueue-to-idle path owes
	// a real kick, so this is an audited error counter, asserted zero by
	// the conformance suite and the fuzzer's audit.
	TicksSkipped    uint64
	IdleTickRescues uint64

	// Watchdog violation counts (see WatchdogConfig). WatchdogEnabled
	// records whether the watchdog was armed, gating the registry lines
	// so runs without it render byte-identically to before it existed.
	WatchdogEnabled     bool
	WatchdogStarvations uint64
	// WatchdogInvariantFaults counts watchdog sweeps whose
	// Machine.CheckAll failed.
	WatchdogInvariantFaults uint64

	// Harness scale: engine events dispatched over the run — the unit the
	// zero-allocation event engine is priced in. Deterministic for a seed
	// (it is pure virtual-time behavior); benchmark/ divides host
	// wall-clock by it to get ns/event. Every event fires from the
	// engine's one timer wheel, so EventsWheel equals EventsFired and
	// EventsHeap, named for a min-heap the engine no longer has, is 0.
	// The benchmark module sums both and checks they add up to
	// EventsFired, and the registry renders both.
	EventsFired uint64
	EventsWheel uint64 // benchmark seam: ROADMAP 1
	EventsHeap  uint64 // benchmark seam: ROADMAP 1
}

// CyclesPerSchedule returns the Figure 5 metric: mean cycles per
// schedule() invocation, including lock spin.
func (s *Stats) CyclesPerSchedule() float64 { return s.PerSchedule.Mean() }

// ExaminedPerSchedule returns the second Figure 5 metric.
func (s *Stats) ExaminedPerSchedule() float64 { return s.ExaminedDist.Mean() }

// KernelCycles returns cycles spent in kernel code: scheduling (incl.
// spin) plus syscalls.
func (s *Stats) KernelCycles() uint64 {
	return s.SchedCycles + s.SpinCycles + s.SyscallCycles + s.TickCycles
}

// SchedulerShareOfKernel returns the fraction of kernel time spent in the
// scheduler — the paper's §4 profile statistic (0.37-0.55 under
// VolanoMark on the stock scheduler).
func (s *Stats) SchedulerShareOfKernel() float64 {
	k := s.KernelCycles()
	if k == 0 {
		return 0
	}
	return float64(s.SchedCycles+s.SpinCycles) / float64(k)
}

// registryLines is the schema's length: the lines with every group on.
const registryLines = 38

// Registry exports the stats /proc-style, as the paper exposed its
// instrumentation through procfs. It inlines, so a caller that only
// renders the snapshot keeps it, lines included, on its stack.
func (s *Stats) Registry() *stats.Registry {
	return &stats.Registry{Lines: s.appendLines(make([]stats.Line, 0, registryLines))}
}

// appendLines appends the registry's schema, every line in name order.
// Hotplug, watchdog and tickless lines appear only on runs that used
// them, so a run without them renders byte-identically to before they
// existed: hotplug once a CPU went offline or came online, watchdog once
// it was armed, tickless once a chain parked (never under TicklessOff).
func (s *Stats) appendLines(l []stats.Line) []stats.Line {
	hotplug := s.CPUOfflines != 0 || s.CPUOnlines != 0
	tickless := s.TicksSkipped != 0 || s.IdleTickRescues != 0
	line := stats.CounterLine
	for _, e := range [...]struct {
		on   bool
		line stats.Line
	}{
		{true, line("cache_refill_cycles", s.CacheCycles)},
		{hotplug, line("cpu_offline_cycles", s.OfflineCycles)},
		{hotplug, line("cpu_offlines", s.CPUOfflines)},
		{hotplug, line("cpu_onlines", s.CPUOnlines)},
		{true, line("ctx_switches", s.CtxSwitches)},
		{true, stats.SummaryLine("cycles_per_schedule", s.PerSchedule)},
		{true, line("events_fired", s.EventsFired)},
		{true, line("events_heap", s.EventsHeap)},
		{true, line("events_wheel", s.EventsWheel)},
		{true, stats.SummaryLine("examined_per_schedule", s.ExaminedDist)},
		{true, line("idle_cycles", s.IdleCycles)},
		{tickless, line("idle_tick_rescues", s.IdleTickRescues)},
		{true, line("mm_switches", s.MMSwitches)},
		{true, line("policy_switches", s.PolicySwitches)},
		{true, line("quantum_expiries", s.QuantumExpiry)},
		{true, line("remote_access_cycles", s.RemoteCycles)},
		{true, line("rq_lock_acquisitions", s.LockAcquisitions)},
		{true, line("rq_lock_contended", s.LockContended)},
		{true, line("sched_calls", s.SchedCalls)},
		{true, line("sched_cross_domain_migrations", s.CrossDomainMigrations)},
		{true, line("sched_cycles", s.SchedCycles)},
		{true, line("sched_idle_switches", s.IdleSwitches)},
		{true, line("sched_lock_spin_cycles", s.SpinCycles)},
		{true, line("sched_migrations", s.Migrations)},
		{true, line("sched_preemptions", s.Preemptions)},
		{true, line("sched_recalc_entries", s.Recalcs)},
		{true, line("sched_tasks_examined", s.Examined)},
		{true, line("syscall_cycles", s.SyscallCycles)},
		{true, line("task_cycles", s.TaskCycles)},
		{true, line("tick_cycles", s.TickCycles)},
		{true, line("tick_preemptions", s.TickPreemptions)},
		{tickless, line("ticks_skipped", s.TicksSkipped)},
		{true, line("timeslice_rotations", s.TimesliceRotations)},
		{true, line("wake_calls", s.WakeCalls)},
		{true, line("wake_idle_placements", s.WakeIdlePlacements)},
		{s.WatchdogEnabled, line("watchdog_invariant_faults", s.WatchdogInvariantFaults)},
		{s.WatchdogEnabled, line("watchdog_starvations", s.WatchdogStarvations)},
		{true, line("yield_calls", s.YieldCalls)},
	} {
		if e.on {
			l = append(l, e.line)
		}
	}
	return l
}
