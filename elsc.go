package elsc

import (
	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// SchedulerKind selects the scheduling policy for a Machine. Its values
// are the policy names of the experiments registry.
type SchedulerKind string

// The available policies.
const (
	// Vanilla is the stock Linux 2.3.99-pre4 scheduler — the paper's
	// baseline ("reg" in its figures): a single unsorted run queue
	// scanned in full on every schedule().
	Vanilla SchedulerKind = "reg"
	// ELSC is the paper's contribution: a run queue kept sorted by
	// static goodness in a table of 30 lists.
	ELSC SchedulerKind = "elsc"
	// Heap is the future-work alternative (§8) that keeps per-processor
	// max-heaps of static goodness.
	Heap SchedulerKind = "heap"
	// MultiQueue is the future-work alternative (§8) with one run queue
	// and one lock per processor — the direction Linux later took.
	MultiQueue SchedulerKind = "mq"
	// O1 is the historical endpoint of that direction: the Linux 2.5
	// O(1) scheduler — per-CPU active/expired priority arrays with a
	// find-first-set bitmap, quantum recharge on array swap, and
	// pull-based load balancing.
	O1 SchedulerKind = "o1"
	// CFS is the design that replaced O(1) in Linux 2.6.23: a
	// weighted-vruntime fair scheduler — static priority maps to a
	// geometric weight table, per-CPU queues order tasks by virtual
	// runtime, and sleepers get a bounded min_vruntime clamp instead of
	// an estimator bonus.
	CFS SchedulerKind = "cfs"
)

// Topology re-exports the cache-domain layout type.
type Topology = sched.Topology

// MachineConfig describes the simulated machine.
type MachineConfig struct {
	// CPUs is the processor count (default 1).
	CPUs int
	// SMP selects an SMP kernel build. The paper's "UP" is CPUs=1 with
	// SMP false; "1P" is CPUs=1 with SMP true.
	SMP bool
	// CacheDomains groups the CPUs into that many NUMA-style cache
	// domains (contiguous, as even as possible). 0 or 1 leaves the
	// machine flat: no dispatch is ever cross-domain. A migration that
	// crosses a domain pays the cost model's CrossDomainRefillMax
	// instead of CacheRefillMax, and domain-aware policies (O1) keep
	// load balancing inside a domain when they can.
	CacheDomains int
	// Scheduler picks the policy (default ELSC).
	Scheduler SchedulerKind
	// Seed drives all randomness (default 1).
	Seed int64
	// MaxSeconds bounds virtual run time (default 3000 virtual seconds).
	// A run stopped there with work still pending ends with the clock
	// on it, so Seconds then reads MaxSeconds.
	MaxSeconds uint64
	// Watchdog, when non-nil, arms the starvation/lockup watchdog: a
	// periodic sweep that reports runnable tasks starved past a
	// threshold, and any failed machine invariant (a task lost from
	// every run queue, an online CPU whose timer chain died, ...).
	Watchdog *WatchdogConfig
}

// Machine is a simulated multiprocessor ready to run tasks or workloads.
// Workloads run either through the registry (RunWorkload with any name
// from Workloads()) or, with the benchmark's full Config, through
// RunVolanoMark and RunWebServer; all three report a WorkloadResult.
type Machine struct {
	m *kernel.Machine
}

// NewMachine builds and boots a machine.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.CPUs == 0 {
		cfg.CPUs = 1
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = ELSC
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxSeconds == 0 {
		cfg.MaxSeconds = 3000
	}
	var topo *sched.Topology
	if cfg.CacheDomains > 1 {
		topo = sched.UniformTopology(cfg.CPUs, cfg.CacheDomains)
	}
	m := kernel.NewMachine(kernel.Config{
		CPUs:         cfg.CPUs,
		SMP:          cfg.SMP,
		Topology:     topo,
		Seed:         cfg.Seed,
		NewScheduler: experiments.Factory(string(cfg.Scheduler)),
		MaxCycles:    cfg.MaxSeconds * kernel.DefaultHz,
		Watchdog:     cfg.Watchdog,
	})
	return &Machine{m: m}
}

// Spawn creates a task executing prog in address space mm (nil for a
// kernel thread) and makes it runnable.
func (m *Machine) Spawn(name string, mm *AddressSpace, prog Program) *Task {
	return &Task{p: m.m.Spawn(name, mm, prog)}
}

// SpawnRT creates a real-time (SCHED_FIFO or SCHED_RR) task.
func (m *Machine) SpawnRT(name string, policy RTPolicy, rtprio int, prog Program) *Task {
	return &Task{p: m.m.SpawnRT(name, task.Policy(policy), rtprio, prog)}
}

// NewAddressSpace allocates an mm that tasks can share; the scheduler's
// one-point goodness bonus applies between tasks of the same space.
func (m *Machine) NewAddressSpace(name string) *AddressSpace {
	return m.m.NewMM(name)
}

// Run drives the simulation until stop returns true, no work remains, or
// the MaxSeconds horizon passes. A nil stop runs until idle/horizon. A
// horizon stop leaves the clock on the horizon: Seconds reads MaxSeconds.
func (m *Machine) Run(stop func() bool) {
	m.m.Run(stop)
}

// RunUntilAllExit runs until every spawned task has exited.
func (m *Machine) RunUntilAllExit() {
	m.m.Run(func() bool { return m.m.Alive() == 0 })
}

// Seconds returns elapsed virtual time in seconds.
func (m *Machine) Seconds() float64 { return m.m.Seconds() }

// Stats returns the machine-wide scheduler statistics (the paper's
// instrumentation).
func (m *Machine) Stats() *Stats { return m.m.Stats() }

// SchedulerName reports the active policy's label ("reg", "elsc", ...).
func (m *Machine) SchedulerName() string { return m.m.Scheduler().Name() }

// SwitchPolicy hot-swaps the running machine onto a different scheduling
// policy: every queued task is drained out of the current scheduler with
// its priority, counters, sleep_avg, and affinity intact, a fresh policy
// is constructed, and the set is imported atomically in virtual time. No
// task is lost, duplicated, or rewound; blocked and running tasks are
// unaffected beyond bookkeeping normalization. Returns the number of
// tasks handed over. Call it between Run calls or from an engine event —
// never from inside a syscall effect.
func (m *Machine) SwitchPolicy(kind SchedulerKind) int {
	return m.m.SwitchPolicy(experiments.Factory(string(kind)))
}

// Hotplug errors, for callers that script transitions.
var (
	// ErrCPUOffline: the target CPU is already offline.
	ErrCPUOffline = kernel.ErrCPUOffline
	// ErrCPUOnline: the target CPU is already online.
	ErrCPUOnline = kernel.ErrCPUOnline
	// ErrLastCPU: refusing to offline the only online CPU.
	ErrLastCPU = kernel.ErrLastCPU
)

// OfflineCPU hot-unplugs a processor mid-run: its running task is
// preempted and re-queued, its private queues are drained to the
// survivors, in-flight IPIs are re-routed, and tasks affined solely to it
// fall back to running anywhere (Linux cpuset semantics). The last online
// CPU cannot be removed. Call it between Run calls or from an engine
// event, like SwitchPolicy.
func (m *Machine) OfflineCPU(id int) error { return m.m.OfflineCPU(id) }

// OnlineCPU brings an offlined processor back: its timer chain re-arms,
// it participates in placement again, and tasks whose affinity was
// widened by its removal are re-pinned to their original masks.
func (m *Machine) OnlineCPU(id int) error { return m.m.OnlineCPU(id) }

// Task wraps a spawned task.
type Task struct {
	p *kernel.Proc
}

// Exited reports whether the task has terminated.
func (t *Task) Exited() bool { return t.p.Exited() }

// UserCycles returns CPU cycles of task-level work executed.
func (t *Task) UserCycles() uint64 { return t.p.Task.UserCycles }

// SetPriority adjusts the task's static priority (1..40, default 20).
func (m *Machine) SetPriority(t *Task, prio int) { m.m.SetPriority(t.p, prio) }

// RTPolicy selects the real-time class for SpawnRT.
type RTPolicy task.Policy

// Real-time policies.
const (
	FIFO = RTPolicy(task.FIFO) // SCHED_FIFO: runs until it blocks or yields
	RR   = RTPolicy(task.RR)   // SCHED_RR: round robin among equals
)
