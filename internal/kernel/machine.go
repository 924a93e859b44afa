// Package kernel simulates the parts of Linux 2.3.99-pre4 that surround
// the scheduler: an SMP machine with per-CPU dispatch, 10 ms timer ticks
// and quantum accounting, wait queues with wake-up preemption
// (reschedule_idle), the global run-queue spinlock, and a cache-affinity
// cost model. Scheduling policies plug in through sched.Scheduler, so the
// stock scheduler and ELSC run on an identical substrate.
//
// The simulation is a single-threaded discrete-event program over virtual
// CPU cycles; all scheduler work, lock spinning, context-switch and
// cache-refill penalties consume virtual CPU time, so workload throughput
// differences between schedulers emerge from the algorithms rather than
// being asserted.
//
// Kick delivery. A task is deliverable to CPU c when it is queued,
// runnable, unclaimed (!HasCPU), charged (real-time, or Counter > 0: an
// exhausted task waits for the recalculation, not for a kick), allowed on
// c, and visible to c. Queued is the task's own run_list.next != NULL
// (task.OnRunqueue), the same word under every policy, so the kernel never
// asks the policy; visibility is what the policy declares through
// sched.Visibility: every CPU for the shared-queue policies, the QIndex
// owner for the per-CPU ones (another CPU may steal, but a balancer may
// rightly decline) — the only policy-written tag the kernel reads, and only
// under that declaration. The one delivery rule: every deliverable task has a
// CPU that can take it and will run schedule() unaided — one running a
// task (its tick is armed), switching to one, flagged needResched, or with
// a reschedule IPI in flight. Under NO_HZ an idle CPU has no tick to
// notice queued work, so whatever makes a task deliverable owes the kick:
// a wake, spawn or re-file (rescheduleIdle, which may also preempt), a
// schedule() that left its previous task queued (kickIdleAllowed), and a
// schedule() that dispatched or recalculated (kickIdleBacklog: one kick
// may have carried several wakes, a pop can uncover what it was hiding,
// and a recalculation charges everyone at once). A CPU mid-switch to idle
// is "almost idle": not kickable yet, so it is flagged needResched and
// its completion re-runs schedule(). None of this scans. Machine keeps
// four CPU-state masks: kicked is itself the store of "an IPI is in
// flight" (sendIPI sets the bit as it arms the CPU's one IPI event,
// ipiArrive clears it), and idle, switching and almostIdle are published
// by CPU.publish at every flip of the fields they summarise. Per-CPU
// deliverable counts are maintained by refile, diffing each proc's cached
// contribution wherever an input of the predicate changes. Machine.CheckAll
// (invariants.go) recomputes all of it by brute force, with the census and
// the CPUs' event invariants; the watchdog runs it every period.
package kernel

import (
	"fmt"
	"math/bits"

	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// Machine parameters: a 400 MHz Pentium II-class SMP (the paper's IBM
// Netfinity testbeds) with HZ=100. The clock is sched's declaration — the
// cost model and the policies' tick-denominated constants are calibrated
// against it — so it is a constant, not a Config field.
const (
	// DefaultHz is the simulated CPU clock rate in cycles per second.
	DefaultHz = sched.Hz
	// DefaultTickCycles is the timer interrupt period: 10 ms at 400 MHz.
	DefaultTickCycles = sched.TickCycles
	// ipiLatency is the delay before a cross-CPU reschedule interrupt
	// lands.
	ipiLatency = 1200
	// syscallRetryCost is charged each time a blocked syscall recheck
	// runs after a wake-up.
	syscallRetryCost = 250
)

// SchedulerFactory builds a scheduling policy bound to the machine's
// environment.
type SchedulerFactory func(env *sched.Env) sched.Scheduler

// Config describes the machine to simulate.
type Config struct {
	// CPUs is the processor count (>= 1).
	CPUs int
	// SMP selects an SMP kernel build. The paper's "UP" rows are
	// CPUs=1, SMP=false; its "1P" rows are CPUs=1, SMP=true.
	SMP bool
	// Topology groups the CPUs into cache domains. Nil means flat: all
	// CPUs share one domain and no dispatch is ever cross-domain, which
	// reproduces the paper-era machines. A non-nil topology must cover
	// exactly CPUs processors; dispatches that cross a domain boundary
	// pay Cost.CrossDomainRefillMax instead of CacheRefillMax.
	Topology *sched.Topology
	// Seed drives all randomness in the machine and its workloads.
	Seed int64
	// NewScheduler builds the policy; nil panics.
	NewScheduler SchedulerFactory
	// MaxCycles stops the simulation at this virtual time (0 = none); a
	// run stopped there with events pending ends with Now at MaxCycles.
	MaxCycles uint64
	// Trace, when non-nil, is invoked at every schedule() decision.
	Trace func(ev TraceEvent)
	// TicklessOff disables NO_HZ tickless idle: every CPU re-arms its
	// timer tick forever, even while idle, as the pre-tickless kernel
	// did. The ablation knob for proving behavior equivalence — tickless
	// parking elides only ticks that would have been idle no-ops, so
	// scheduling decisions (and workload Results) are identical in both
	// modes while event counts and tick overhead differ.
	TicklessOff bool
	// Watchdog, when non-nil, arms the starvation/lockup watchdog at
	// boot (see WatchdogConfig). Off by default: the watchdog adds
	// periodic engine events, which perturbs event counts.
	Watchdog *WatchdogConfig
	// Engine, when non-nil, is a recycled event engine the machine boots
	// on instead of allocating a fresh one. NewMachine resets it, so its
	// wheel rings and event freelist carry over from the
	// previous simulation — sweep workers run hundreds of cells without
	// re-paying engine construction. The engine must not be shared by a
	// live machine.
	Engine *sim.Engine
}

// TraceEvent describes one schedule() decision for tracing tools.
type TraceEvent struct {
	Now      sim.Time
	CPU      int
	Prev     *task.Task // what was running (the idle task when leaving idle)
	Next     *task.Task // what was chosen; nil means idle
	Examined int
	Cycles   uint64
	Spin     uint64
	Recalcs  int
}

// Machine is a simulated multiprocessor running one scheduler.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	env   *sched.Env
	sched sched.Scheduler
	ops   sched.Ops // the installed policy's capabilities
	cpus  []*CPU

	// procs holds every spawned proc at its pid-1; waitNodes is the
	// klist table of their wait-queue links, one slot per pid
	// (waitSlot).
	procs     []*Proc
	waitNodes klist.Table
	alive     int
	nextPID   int
	mmSeq     int

	// rqLocks is the run-queue lock timing model: a single global lock
	// for sched.VisibleAll policies (as in 2.3.99), one per CPU for
	// sched.VisibleOwner ones. ownerOnly caches which.
	rqLocks   []spinlock
	ownerOnly bool

	// wakerCPU is the processor executing the current syscall effect, or
	// -1 outside one (timer and engine-event wake-ups have no waker).
	// try_to_wake_up reads it for SD_WAKE_IDLE placement: a wake issued
	// from CPU c prefers an idle CPU in c's cache domain. An int32 beside
	// ownerOnly shares its word, which keeps a Machine and its allocation
	// header inside the 768-byte size class.
	wakerCPU int32

	// Kick-delivery state (see the package doc): CPU-state masks, bit i
	// for CPU i, and the deliverable counts — wide counts tasks every CPU
	// can take, CPU.narrow the rest, and the narrow mask names the CPUs
	// whose narrow count is non-zero.
	allCPUs, idle, kicked, switching, almostIdle uint64
	wide                                         int
	narrow                                       uint64
	// lockAcqBase/lockContBase carry lock totals from run-queue lock sets
	// retired by SwitchPolicy (the lock regime can change mid-run).
	lockAcqBase  uint64
	lockContBase uint64
	stats        Stats

	// drainBuf is the reusable buffer Drain fills at each offline, so
	// steady-state hotplug never allocates.
	drainBuf []*task.Task
	// watchdog is the optional starvation/lockup detector.
	watchdog *watchdog
}

// idleNames names the per-CPU idle tasks. Built once: a matrix cell boots
// a machine per run, and formatting 32 names was a visible slice of it.
var idleNames = func() (names [64]string) {
	for i := range names {
		names[i] = fmt.Sprintf("idle/%d", i)
	}
	return
}()

// NewMachine builds and boots a machine: CPUs idle, ticks armed.
func NewMachine(cfg Config) *Machine {
	if cfg.CPUs < 1 || cfg.CPUs > 64 {
		panic("kernel: need 1 to 64 CPUs")
	}
	if cfg.NewScheduler == nil {
		panic("kernel: config needs a scheduler factory")
	}
	if cfg.Topology != nil && cfg.Topology.NumCPU() != cfg.CPUs {
		panic(fmt.Sprintf("kernel: topology covers %d CPUs, machine has %d",
			cfg.Topology.NumCPU(), cfg.CPUs))
	}
	m := &Machine{
		cfg:      cfg,
		eng:      cfg.Engine,
		rng:      sim.NewRNG(cfg.Seed),
		wakerCPU: -1,
		allCPUs:  ^uint64(0) >> uint(64-cfg.CPUs),
	}
	if m.eng == nil {
		m.eng = new(sim.Engine)
	} else {
		m.eng.Reset()
	}
	m.eng.MaxDur = sim.Time(cfg.MaxCycles)
	m.env = sched.NewEnv(cfg.CPUs, cfg.SMP, func() int { return m.alive })
	if cfg.Topology != nil {
		m.env.Topo = cfg.Topology
	}
	m.env.Requeued = func(t *task.Task) { m.refile(m.procOf(t)) }
	m.installPolicy(cfg.NewScheduler)

	m.cpus = make([]*CPU, cfg.CPUs)
	for i := range m.cpus {
		c := &CPU{id: i, m: m, dom: m.env.Topo.DomainOf(i)}
		c.idleTask = task.New(-(i + 1), idleNames[i], nil, m.env.Epoch)
		c.idleTask.IsIdle = true
		c.idleTask.Processor = i
		// The per-CPU event set lives in the CPU itself; the hot paths
		// re-arm these four objects in place, and only sleep timers and
		// ipc deliveries (several can be in flight per queue) draw from
		// the engine's freelist, so steady-state execution never
		// allocates per event.
		c.tickEv = sim.Event{Name: "tick", Fn: c.tick}
		c.ipiEv = sim.Event{Name: "resched-ipi", Fn: c.ipiArrive}
		c.dispatchEv = sim.Event{Name: "dispatch", Fn: c.dispatchArrive}
		c.runEv = sim.Event{Name: "rundone", Fn: c.segmentDone}
		m.cpus[i] = c
		c.publish()
		// Stagger per-CPU timer interrupts slightly so four CPUs do
		// not pile onto the run-queue lock at the exact same instant.
		m.eng.Schedule(&c.tickEv, sim.Time(DefaultTickCycles+uint64(i)*997))
	}
	if cfg.Watchdog != nil {
		// The first sweep fires one period in.
		wd := &watchdog{m: m, cfg: *cfg.Watchdog}
		wd.ev = m.eng.NewEvent("watchdog", wd.sweep)
		m.watchdog = wd
		m.stats.WatchdogEnabled = true
		m.eng.ScheduleAfter(wd.ev, watchdogPeriod)
	}
	return m
}

// installPolicy builds the policy and everything shaped by it: its
// capability table, its declared visibility, and the lock set.
func (m *Machine) installPolicy(factory SchedulerFactory) {
	m.sched = factory(m.env)
	m.ops = sched.OpsOf(m.sched)
	m.ownerOnly = m.sched.Visibility() == sched.VisibleOwner
	nlocks := 1
	if m.ownerOnly {
		nlocks = m.cfg.CPUs
	}
	m.rqLocks = make([]spinlock, nlocks)
}

// noteRunning tells a policy that keeps running tasks listed
// (Ops.NoteRunning) that queued task t gained or lost its CPU.
func (m *Machine) noteRunning(t *task.Task, running bool) {
	if m.ops.NoteRunning != nil && t.OnRunqueue() {
		m.ops.NoteRunning(t, running)
	}
}

// Engine exposes the event engine (workloads schedule helper events).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// RNG returns the machine's deterministic random stream.
func (m *Machine) RNG() *sim.RNG { return m.rng }

// Env returns the scheduler environment.
func (m *Machine) Env() *sched.Env { return m.env }

// Scheduler returns the active policy.
func (m *Machine) Scheduler() sched.Scheduler { return m.sched }

// Ops returns the active policy's capability table.
func (m *Machine) Ops() sched.Ops { return m.ops }

// Stats returns the accumulated machine statistics.
func (m *Machine) Stats() *Stats {
	m.stats.LockAcquisitions = m.lockAcqBase
	m.stats.LockContended = m.lockContBase
	for i := range m.rqLocks {
		m.stats.LockAcquisitions += m.rqLocks[i].acquisitions
		m.stats.LockContended += m.rqLocks[i].contended
	}
	m.stats.EventsFired = m.eng.Fired()
	m.stats.EventsWheel = m.stats.EventsFired
	return &m.stats
}

// rqLockFor returns the lock guarding cpu's run queue.
func (m *Machine) rqLockFor(cpu int) *spinlock {
	return &m.rqLocks[cpu%len(m.rqLocks)]
}

// rqLockOfTask returns the lock guarding the queue a just-filed task landed
// on: the global lock, or the lock of the owner the policy recorded in
// QIndex — which is the policy's own business unless it declared
// VisibleOwner.
func (m *Machine) rqLockOfTask(t *task.Task) *spinlock {
	if !m.ownerOnly {
		return &m.rqLocks[0]
	}
	return &m.rqLocks[t.QIndex]
}

// Now returns current virtual time in cycles.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Hz returns the clock rate.
func (m *Machine) Hz() uint64 { return DefaultHz }

// Seconds converts the current virtual time to seconds.
func (m *Machine) Seconds() float64 {
	return float64(m.eng.Now()) / DefaultHz
}

// Alive returns the number of live (non-exited) tasks.
func (m *Machine) Alive() int { return m.alive }

// Procs returns all spawned procs, including exited ones.
func (m *Machine) Procs() []*Proc { return m.procs }

// NewMM allocates a fresh address space.
func (m *Machine) NewMM(name string) *task.MM {
	m.mmSeq++
	return &task.MM{ID: m.mmSeq, Name: name}
}

// Spawn creates a task running prog in address space mm (nil for a kernel
// thread), makes it runnable, and lets it preempt an idle or weaker CPU,
// like wake_up_process on a fresh fork.
func (m *Machine) Spawn(name string, mm *task.MM, prog Program) *Proc {
	m.nextPID++
	t := task.New(m.nextPID, name, mm, m.env.Epoch)
	return m.spawn(t, prog)
}

// SpawnRT creates a real-time task.
func (m *Machine) SpawnRT(name string, policy task.Policy, rtprio int, prog Program) *Proc {
	m.nextPID++
	t := task.NewRT(m.nextPID, name, policy, rtprio, m.env.Epoch)
	return m.spawn(t, prog)
}

func (m *Machine) spawn(t *task.Task, prog Program) *Proc {
	p := &Proc{Task: t, M: m, prog: prog, memDomain: -1}
	p.sleepWakeFn = p.sleepWake
	m.procs = append(m.procs, p)
	m.waitNodes.Add(&p.waitNode) // waitSlot(p): spawn order is pid order
	m.alive++
	if !t.RealTime() {
		// Fork-time quantum inheritance: the child gets a share of the
		// forking parent's remaining quantum, which varies with how
		// recently the parent was recharged, so a process that forks many
		// threads seeds them with varied counters.
		lo := uint64(t.Priority/4) + 1
		hi := uint64(t.MaxCounter())
		t.SetCounter(m.env.Epoch, int(m.rng.Range(lo, hi)))
	}
	// Fork-time interactivity inheritance, 2.6-style: a fresh task starts
	// at the neutral midpoint of the sleep_avg range — neither branded a
	// hog (it has not run yet) nor fully interactive (it has not slept) —
	// and earns its bonus from its own behavior within its first ticks.
	t.CreditSleep(m.env.Cost.MaxSleepAvg/2, m.env.Cost.MaxSleepAvg)
	p.runnableSince = m.eng.Now()
	m.enqueue(p, m.env.Cost.AddRunqueue+m.env.Cost.LockOp)
	m.rescheduleIdle(p)
	return p
}

// enqueue files p's runnable task on the policy's run queue — a critical
// section of cost cycles on the lock of the queue it lands on.
func (m *Machine) enqueue(p *Proc, cost uint64) {
	m.sched.AddToRunqueue(p.Task)
	m.rqLockOfTask(p.Task).bump(m.eng.Now(), cost)
	m.refile(p)
}

// SetPriority changes a task's static priority, re-indexing it if queued
// ("its priority almost never changes, though when it does, the ELSC
// scheduler adapts accordingly").
func (m *Machine) SetPriority(p *Proc, prio int) {
	if prio < task.MinPriority || prio > task.MaxPriority {
		panic("kernel: priority out of range")
	}
	t := p.Task
	m.requeue(p, func() {
		t.Priority = prio
		if c := t.Counter(m.env.Epoch); c > t.MaxCounter() {
			t.SetCounter(m.env.Epoch, t.MaxCounter())
		}
	})
	// Restart the watchdog's starvation stopwatch: its threshold is scaled
	// by the task's quantum, so a priority drop must not let wait time
	// accrued under the old, larger quantum retroactively cross the new,
	// tighter bar (fuzzer seed 90031 flagged a hog the instant churn
	// dropped it from priority 20 to 1).
	if t.Runnable() && !t.HasCPU {
		p.runnableSince = m.eng.Now()
	}
}

// requeue applies change to p's task with the task out of the policy's
// structures, so whatever the policy indexes it by (priority, class,
// affinity) can move. Only a task actually waiting in a queue is
// re-filed — a running one is re-filed by its next schedule() anyway —
// and requeue reports whether it was.
func (m *Machine) requeue(p *Proc, change func()) bool {
	t := p.Task
	queued := t.OnRunqueue() && !t.HasCPU
	if queued {
		m.sched.DelFromRunqueue(t)
	}
	change()
	if queued {
		m.sched.AddToRunqueue(t)
	}
	m.refile(p)
	return queued
}

// Run drives the simulation until stop returns true, no events remain, or
// the configured MaxCycles horizon passes, where Now then reads MaxCycles.
// It kicks every CPU's first schedule() at time zero and flushes idle
// accounting, up to Now, on return.
func (m *Machine) Run(stop func() bool) {
	for w := m.idle; w != 0; w &= w - 1 {
		m.reschedule(m.lowest(w), m.eng.Now())
	}
	m.eng.Run(stop)
	for _, c := range m.cpus {
		if c.isIdle() {
			m.stats.IdleCycles += uint64(m.eng.Now() - c.idleFrom)
			c.idleFrom = m.eng.Now()
		}
		// Flush skipped-tick accounting for chains still parked at the
		// stop instant, advancing the grid anchor so a later Run (or
		// ensureTick) never counts the same instants twice.
		if c.online() && !c.tickEv.Pending() {
			c.skipTicksThrough(m.eng.Now())
		}
	}
}

// WakeOne releases the longest waiter on wq (wake_up). Returns the proc
// woken, or nil.
func (m *Machine) WakeOne(wq *WaitQueue) *Proc {
	p := wq.dequeueFirst(m)
	if p == nil {
		return nil
	}
	m.wake(p)
	return p
}

// WakeAll releases every waiter on wq (wake_up_all).
func (m *Machine) WakeAll(wq *WaitQueue) int {
	n := 0
	for {
		p := wq.dequeueFirst(m)
		if p == nil {
			return n
		}
		m.wake(p)
		n++
	}
}

// wake is try_to_wake_up: credit the blocked stretch to the task's
// sleep_avg, mark runnable, insert into the run queue (a short critical
// section on the run-queue lock), then look for a CPU to preempt. When
// the wake was issued from a CPU whose cache domain holds an idle
// processor, a policy with Ops.Dynamic is offered that CPU first
// (SD_WAKE_IDLE): the woken task starts immediately, near the waker's
// warm data, instead of queueing behind its home CPU's backlog.
func (m *Machine) wake(p *Proc) {
	t := p.Task
	if p.exited {
		return
	}
	if p.sleepEv != nil {
		m.eng.Cancel(p.sleepEv)
		p.sleepEv = nil
	}
	if t.Runnable() && (t.OnRunqueue() || t.HasCPU) {
		return // already awake
	}
	m.stats.WakeCalls++
	now := m.eng.Now()
	if now > p.sleepFrom {
		t.CreditSleep(uint64(now-p.sleepFrom), m.env.Cost.MaxSleepAvg)
	}
	t.State = task.Running
	p.runnableSince = now
	wakeCost := m.env.Cost.AddRunqueue + m.env.Cost.WakeupCost/4 + m.env.Cost.LockOp + m.env.Cost.SleepAvgOp
	if m.ops.Dynamic != nil {
		if target := m.wakeIdleTarget(t); target >= 0 && m.ops.Dynamic.PlaceWake(t, target) {
			m.stats.WakeIdlePlacements++
			m.rqLockOfTask(t).bump(now, wakeCost)
			m.refile(p)
			m.cpus[target].sendIPI()
			return
		}
	}
	m.enqueue(p, wakeCost)
	m.rescheduleIdle(p)
}

// wakeIdleTarget returns the idle CPU an SD_WAKE_IDLE wake-up should
// prefer, or -1. Like 2.6's wake_idle, the domain of the task's own last
// CPU is scanned first — an idle processor next to the task's cache and
// memory beats any other — then the waker's domain (the data the wake is
// about is warm there), before falling back to the ordinary wake path.
// No placement happens outside a syscall context (timer and engine-event
// wakes have no waker), and none is needed when the task's own last CPU
// is already idle: the affinity fast path in rescheduleIdle lands it
// there for free.
func (m *Machine) wakeIdleTarget(t *task.Task) int {
	if m.wakerCPU < 0 {
		return -1
	}
	topo := m.env.Topo
	if t.EverRan && t.Processor < len(m.cpus) && t.AllowedOn(t.Processor) {
		if m.cpus[t.Processor].isIdle() {
			return -1
		}
		if cpu := m.idleIn(topo.DomainOf(t.Processor), t); cpu >= 0 {
			return cpu
		}
	}
	return m.idleIn(topo.DomainOf(int(m.wakerCPU)), t)
}

// idleIn returns the first idle CPU in domain dom that t may run on, -1
// if the domain is fully busy.
func (m *Machine) idleIn(dom int, t *task.Task) int {
	if w := m.env.Topo.DomainMask(dom) & m.allowed(t) & m.idle; w != 0 {
		return bits.TrailingZeros64(w)
	}
	return -1
}

// rescheduleIdle decides which CPU, if any, should run schedule() because
// p became runnable — 2.3.99's reschedule_idle, restricted to the CPUs
// that can see the task: an idle (or almost idle) queue owner under
// per-CPU queues, then the task's last CPU if idle, then any idle CPU,
// then an almost-idle one, else preempt the CPU whose current task has
// the worst goodness, if the woken task beats it.
func (m *Machine) rescheduleIdle(p *Proc) {
	t := p.Task
	allowed := m.allowed(t)
	sees := allowed & m.visibleTo(t)
	// Per-CPU queues: only the owner's schedule() is guaranteed to find
	// the task, so an idle or almost-idle owner comes before everything.
	// A busy owner falls through to the steal and preemption paths.
	if m.ownerOnly && sees&(m.idle|m.almostIdle) != 0 {
		m.lowest(sees).deliver()
		return
	}
	// Last CPU first: the affinity-preserving fast path. A CPU with a
	// kick already in flight needs no second one: its schedule() will
	// see this task on the run queue too.
	idle := allowed & m.idle
	if t.EverRan && idle&cpuBit(t.Processor) != 0 {
		m.cpus[t.Processor].sendIPI()
		return
	}
	if free := idle &^ m.kicked; free != 0 {
		m.lowest(free).sendIPI()
		return
	}
	if idle != 0 {
		return
	}
	// No idle allowed CPU, but one that sees the task is about to be: a
	// wake racing the machine's last non-busy CPU into idleness would
	// otherwise strand the task until someone's quantum expires.
	if almost := sees & m.almostIdle; almost != 0 {
		m.lowest(almost).deliver()
		return
	}
	// Consider preemption, among the CPUs that can see the task: machine-
	// wide the weakest current task is the victim; with per-CPU queues the
	// IPI goes to the owning CPU or nowhere, exactly 2.6's
	// resched_task(rq->curr) after enqueueing.
	var victim *CPU
	worst := 0
	for w := sees &^ m.kicked; w != 0; w &= w - 1 {
		c := m.lowest(w)
		if c.current == nil {
			continue // idle, offline, or a decision already in flight there
		}
		cur := c.current.Task
		if cur.RealTime() && !t.RealTime() {
			continue
		}
		if m.ops.Dynamic != nil {
			if victim == nil && m.ops.Dynamic.PreemptsCurr(t, cur) {
				victim = c
			}
			continue
		}
		gw := sched.Goodness(m.env.Epoch, t, c.id, cur.MM)
		gc := sched.Goodness(m.env.Epoch, cur, c.id, cur.MM)
		if gw-gc > worst {
			worst = gw - gc
			victim = c
		}
	}
	if victim != nil {
		m.stats.Preemptions++
		victim.sendIPI()
		return
	}
	// No idle CPU and no preemption victim. A candidate mid context-switch
	// (to a task: the almost-idle ones were handled above) re-runs
	// schedule() at its dispatch, or the wake would be lost.
	if busy := sees & m.switching; busy != 0 {
		m.lowest(busy).needResched = true
	}
}

// SetAffinity pins a task to the CPUs in mask (bit i allows CPU i; zero
// allows all), re-filing it if it waits on a per-CPU queue. An explicit
// mask supersedes any cpuset fallback in effect; if the new mask names
// only offline CPUs, fallback applies to it immediately (the task runs
// anywhere until one of its CPUs returns).
func (m *Machine) SetAffinity(p *Proc, mask uint64) {
	queued := m.requeue(p, func() {
		p.savedAffinity = 0
		p.Task.CPUsAllowed = mask
		if mask != 0 && mask&m.env.OnlineMask() == 0 {
			p.savedAffinity = mask
			p.Task.CPUsAllowed = 0
		}
	})
	if queued {
		m.rescheduleIdle(p)
	}
}

// SetPolicy is sched_setscheduler: change a task's scheduling class and
// real-time priority at run time. Following 2.3.99, a queued task is moved
// to the front of its queue and the scheduler is given a chance to
// preempt. The re-file is that move: AddToRunqueue puts the task at the
// head of its new list under reg, elsc, mq, o1 and cfs's real-time levels,
// so it runs before an equal that was already waiting. Under heap, and
// among cfs's fair tasks, it queues behind its equals — arrival order and
// vruntime order are those structures' own tie rules.
func (m *Machine) SetPolicy(p *Proc, policy task.Policy, rtprio int) {
	if policy != task.Other && (rtprio < task.MinRTPriority || rtprio > task.MaxRTPriority) {
		panic("kernel: rt_priority out of range")
	}
	t := p.Task
	if policy == task.Other {
		rtprio = 0
	}
	if m.requeue(p, func() { t.Policy, t.RTPriority = policy, rtprio }) {
		m.rescheduleIdle(p)
	}
}

// SwitchPolicy hot-swaps the scheduling policy: it drains every queued
// task out of the current scheduler, builds a fresh one via factory, and
// imports the set atomically (in virtual time — the swap happens between
// events, so no CPU ever observes a half-populated queue). Returns the
// number of tasks handed over, queued plus running.
//
// Nothing on a task needs translating between policies: a drained task is
// simply off the run queue, and the successor writes its own tags when it
// files it (see task.Task) — blocked tasks included, at their next
// wake-up. The handoff has two hazards left:
//
//  1. Running tasks: most policies dequeue a dispatched task, but the
//     stock scheduler keeps it listed and counts it via NoteRunning, and
//     ELSC leaves it marked queued. The old policy is told to forget
//     running tasks before the drain, and a successor with
//     Ops.NoteRunning is handed them back after the import.
//  2. The lock regime can change (global lock <-> per-CPU locks), so the
//     retired lock set's totals are folded into base accumulators and a
//     fresh set is built to the successor's shape.
//
// Call from between-events contexts only (an engine event callback or
// between Run calls), never from inside a syscall effect.
func (m *Machine) SwitchPolicy(factory SchedulerFactory) int {
	now := m.eng.Now()
	old := m.sched

	// Detach running tasks from the old policy's bookkeeping. HasCPU
	// tasks are exactly the CPUs' current and in-flight dispatch procs.
	var running []*task.Task
	for _, c := range m.cpus {
		if c.current != nil {
			running = append(running, c.current.Task)
		}
		if c.dispatchNext != nil {
			running = append(running, c.dispatchNext.Task)
		}
	}
	for _, t := range running {
		old.DelFromRunqueue(t)
	}

	// Drain the queued set — one queue per lock — and verify nothing was
	// lost on the way out.
	want := old.Runnable()
	var exported []*task.Task
	for q := range m.rqLocks {
		exported = old.Drain(q, exported)
	}
	if len(exported) != want || old.Runnable() != 0 {
		panic(fmt.Sprintf("kernel: %s exported %d tasks, had %d queued, %d left",
			old.Name(), len(exported), want, old.Runnable()))
	}

	// Retire the old lock set, keeping its totals, and rebuild everything
	// policy-shaped: the scheduler, its capability table, the locks.
	for i := range m.rqLocks {
		m.lockAcqBase += m.rqLocks[i].acquisitions
		m.lockContBase += m.rqLocks[i].contended
	}
	m.installPolicy(factory)

	// Import in export order, then hand running tasks to a successor that
	// keeps them listed (the stock scheduler; AddToRunqueue sees HasCPU
	// and counts them as running, so Runnable is unaffected).
	for _, t := range exported {
		m.sched.AddToRunqueue(t)
	}
	if m.ops.NoteRunning != nil {
		for _, t := range running {
			m.sched.AddToRunqueue(t)
		}
	}
	if got := m.sched.Runnable(); got != len(exported) {
		panic(fmt.Sprintf("kernel: %s imported %d runnable tasks, want %d",
			m.sched.Name(), got, len(exported)))
	}

	// The swap's critical section: one pass over the migrated set under
	// the new lock regime.
	m.rqLocks[0].bump(now, m.env.Cost.LockOp+
		uint64(len(exported)+len(running))*m.env.Cost.AddRunqueue)
	m.stats.PolicySwitches++
	m.recount()

	// The imported backlog may be visible to CPUs that went idle under
	// the old policy (or sit behind a transitioning CPU's dispatch);
	// nothing else will trigger their schedule(), so kick them here.
	m.nudgeOnline()
	return len(exported) + len(running)
}

// procOf maps a task back to its proc: the proc table holds it at its pid.
func (m *Machine) procOf(t *task.Task) *Proc {
	if i := t.ID - 1; i >= 0 && i < len(m.procs) && m.procs[i].Task == t {
		return m.procs[i]
	}
	panic("kernel: task with no proc on this machine")
}
