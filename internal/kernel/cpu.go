package kernel

import (
	"math/bits"

	"elsc/internal/sim"
	"elsc/internal/task"
)

// CPU is one simulated processor. It is either idle, executing a proc's
// current work segment, or "transitioning": a schedule() decision has been
// made and the context switch completes a little later in virtual time
// (the scheduler's own cost, lock spin, and switch penalties).
type CPU struct {
	id int
	m  *Machine

	current       *Proc
	idleTask      *task.Task
	transitioning bool
	needResched   bool

	// While the CPU is hot-unplugged (its bit is clear in the Env online
	// mask) it runs nothing, its timer chain parks itself, and IPIs
	// landing here are re-routed. offlineFrom stamps the current offline
	// stretch, which OnlineCPU adds to the machine's OfflineCycles.
	offlineFrom sim.Time

	// Tickless idle (NO_HZ): a fully idle CPU stops re-arming its timer
	// chain at the next firing — parked lazily, exactly like hotplug parks
	// the chain of an offline CPU — and the first reschedule that puts
	// work here re-arms it on the original grid (ensureTick). Outside the
	// tick callback the chain is parked exactly when tickEv is not
	// pending: every tick path that calls reschedule re-arms first, and
	// nothing cancels tickEv. tickNext is the next instant the conceptual
	// always-on chain would fire at, with 0 meaning the chain also died
	// offline (OnlineCPU re-anchors it at online+period, matching what a
	// non-tickless online would arm).
	tickNext sim.Time

	segStart sim.Time
	idleFrom sim.Time

	// Preallocated event machinery, so the per-event hot paths never
	// touch the allocator: the timer tick, the reschedule IPI, the
	// context-switch completion and the segment completion are
	// caller-owned events held by value — the CPU and its events are one
	// allocation — and re-armed in place (at most one of each is ever in
	// flight; an interrupted segment's runEv is cancelled and armed again
	// when the segment resumes), and the switch carries its chosen proc
	// through dispatchNext instead of a fresh closure.
	tickEv       sim.Event
	ipiEv        sim.Event
	dispatchEv   sim.Event
	runEv        sim.Event
	dispatchNext *Proc

	// dom is the CPU's cache domain, fixed at boot (Topology is
	// immutable): the segment paths read it on every segment.
	dom int

	// work is the CPU's task-work clock: total cycles of user work
	// executed here, the pollution clock for the cache model.
	work uint64

	// narrow counts the deliverable tasks that only some CPUs, this one
	// among them, can take (see Machine.count).
	narrow int
}

// online reports whether the CPU is hot-plugged in: its bit in the Env
// online mask, which OfflineCPU / OnlineCPU flip and the policies read.
func (c *CPU) online() bool { return c.m.env.OnlineMask()&cpuBit(c.id) != 0 }

// isIdle reports whether the CPU has nothing running and no dispatch in
// flight. Offline CPUs are never idle in the schedulable sense: they must
// not be kicked, offered wakes, or counted as placement targets.
func (c *CPU) isIdle() bool { return c.online() && c.current == nil && !c.transitioning }

// sendIPI arms the CPU's one reschedule IPI, unless one is already in
// flight; the CPU's kicked bit is set exactly while it is pending. When it
// lands the CPU runs schedule(), stopping its current segment first if it
// has one: one IPI serves as both the kick of an idle CPU and a wake-up
// preemption. Duplicate sends collapse via the kicked mask — later
// wake-ups lean on the in-flight IPI — so an IPI that lands on a CPU that
// grabbed work in the interim must still re-run schedule(): dropping it
// would drop every wake that piggybacked on it, leaving a woken task
// queued behind whatever the CPU picked until its quantum runs out.
func (c *CPU) sendIPI() {
	m, bit := c.m, cpuBit(c.id)
	if m.kicked&bit != 0 {
		return
	}
	m.kicked |= bit
	m.eng.ScheduleAfter(&c.ipiEv, ipiLatency)
}

// deliver makes an idle or almost-idle CPU run schedule(): a kick, or —
// mid-switch to idle, where a kick would land before the CPU can take it
// — a needResched flag that the switch's completion honors. A kick
// already in flight flags it on landing.
func (c *CPU) deliver() {
	if !c.transitioning {
		c.sendIPI()
	} else if c.m.kicked&cpuBit(c.id) == 0 {
		c.needResched = true
	}
}

// ipiArrive is the landing of the reschedule IPI, a kick or a preemption:
// either way it re-runs schedule() here. The kicked bit collapses
// duplicates while one is in flight, so the single per-CPU event is never
// double-armed. A kick that lands mid-transition only flags needResched:
// the dispatch path re-checks it.
func (c *CPU) ipiArrive(now sim.Time) {
	c.m.kicked &^= cpuBit(c.id)
	if !c.online() {
		// The IPI raced an offline: the target is gone, but the wakes
		// that piggybacked on it still name runnable queued tasks.
		// Re-route the nudge to the surviving CPUs instead of dropping
		// it — a dropped kick here is a lost wake-up.
		c.m.nudgeOnline()
		return
	}
	switch {
	case c.transitioning:
		c.needResched = true
	case c.current == nil:
		c.m.reschedule(c, now)
	default:
		c.interrupt(now)
		c.current.Task.InvSwitches++
		c.m.reschedule(c, now)
	}
}

// interrupt stops the current segment at now, crediting the elapsed work.
// When the segment was stretched by the remote-access penalty, wall time
// converts back to work at the segment's own ratio, so an interrupted
// remote segment never credits more work than it performed.
func (c *CPU) interrupt(now sim.Time) {
	p := c.current
	if p == nil {
		return
	}
	c.m.eng.Cancel(&c.runEv)
	elapsed := uint64(now - c.segStart)
	if elapsed > p.segWall {
		elapsed = p.segWall
	}
	work := elapsed
	if p.segWall > p.segWork {
		// Full-width multiply: elapsed*segWork overflows uint64 for
		// multi-billion-cycle stretched segments. hi < segWall always
		// holds (elapsed <= segWall), so Div64 cannot panic.
		hi, lo := bits.Mul64(elapsed, p.segWork)
		work, _ = bits.Div64(hi, lo, p.segWall)
		c.m.stats.RemoteCycles += elapsed - work
	}
	if work > p.remaining {
		work = p.remaining
	}
	p.remaining -= work
	c.creditWork(p, work)
}

// creditWork accounts executed cycles to the proc and machine, and drives
// the page-migration clock: enough consecutive execution in one foreign
// domain rebinds the proc's memory there.
func (c *CPU) creditWork(p *Proc, cycles uint64) {
	if cycles == 0 {
		return
	}
	var run uint64 // work at home breaks any run abroad
	if !c.home(p) {
		dom := int16(c.dom)
		run = cycles
		if dom == p.foreignDom {
			run += p.foreignWork
		}
		p.foreignDom = dom
		if run >= c.m.env.Cost.RehomeCycles {
			p.memDomain = dom
			run = 0
		}
	}
	c.credit(p, cycles, run)
}

// home reports whether the proc's memory lives in this CPU's domain, or
// has not been placed yet: work here is neither stretched nor counted
// toward a page migration.
func (c *CPU) home(p *Proc) bool { return p.memDomain < 0 || int16(c.dom) == p.memDomain }

// credit accounts cycles executed here to the CPU's work clock and the
// task's run time, and leaves the page-migration clock at foreignRun: the
// consecutive work in p.foreignDom, 0 for work at home. Segments with a
// completion handler or an in-flight syscall are kernel crossings
// (syscall, yield, sleep, exit); plain compute segments are user work.
func (c *CPU) credit(p *Proc, cycles, foreignRun uint64) {
	c.work += cycles
	p.Task.DrainRun(cycles)
	if p.inSyscall || p.onDone != nil {
		p.Task.SystemCycles += cycles
		c.m.stats.SyscallCycles += cycles
	} else {
		p.Task.UserCycles += cycles
		c.m.stats.TaskCycles += cycles
	}
	p.foreignWork = foreignRun
}

// tick is the 10 ms timer interrupt: account overhead, age the running
// task's quantum, and force schedule() on expiry. A tick that finds the
// CPU fully idle with nothing to rescue parks the chain (NO_HZ idle)
// instead of re-arming; ensureTick restarts it when work returns.
func (c *CPU) tick(now sim.Time) {
	m := c.m
	if !c.online() {
		// Hot-unplugged: park the timer chain by not re-arming it.
		// OnlineCPU restarts the chain (or, if the CPU returns within
		// one period, this firing never sees the offline state at all).
		// tickNext 0 marks that the chain died offline, so OnlineCPU
		// re-anchors the grid at online+period rather than resuming it.
		c.tickNext = 0
		return
	}
	if c.current == nil && !c.transitioning {
		// Fully idle at the tick. A deliverable task stranded here with
		// nothing in flight is a lost kick — an audited error path
		// (IdleTickRescues, asserted zero by the conformance suite and
		// the fuzzer's audit); the reschedule below is the safety net
		// that makes it degrade gracefully rather than hang the machine.
		rescue := m.tickRescueNeeded(c)
		if !rescue && !m.cfg.TicklessOff {
			// NO_HZ: park the chain. This firing happened and is charged;
			// the instants the chain now skips are exactly firings that
			// would have found the CPU idle with nothing to do.
			m.stats.TickCycles += m.env.Cost.TickCost
			c.tickNext = now + sim.Time(DefaultTickCycles)
			return
		}
		m.eng.ScheduleAfter(&c.tickEv, DefaultTickCycles)
		m.stats.TickCycles += m.env.Cost.TickCost
		if rescue {
			m.reschedule(c, now)
			if c.dispatchNext != nil {
				// The policy picked the stranded task up: proof positive a
				// selectable task was sitting here with no kick in flight.
				// A reschedule that declines is different — the policy is
				// refusing work it could structurally see (a heap's
				// exhausted top hiding its second element, an epoch
				// section awaiting merge); the chain keeps polling until
				// the refusal's own resolution (recalc, re-prioritize,
				// wake) delivers its kick, exactly as the always-on chain
				// did, and no rescue is charged.
				m.stats.IdleTickRescues++
			}
		}
		return
	}
	m.eng.ScheduleAfter(&c.tickEv, DefaultTickCycles)
	m.stats.TickCycles += m.env.Cost.TickCost
	if c.transitioning {
		return
	}
	p := c.current
	t := p.Task
	if t.Policy == task.FIFO {
		return // FIFO tasks run until they block or yield
	}
	if t.TickDecrement(m.env.Epoch) == 0 {
		m.stats.QuantumExpiry++
		t.InvSwitches++
		c.interrupt(now)
		m.reschedule(c, now)
		return
	}
	// Quantum left: give the policy its tick-time preemption rules — a
	// better-level task waiting on this queue, or a TIMESLICE_GRANULARITY
	// round-robin against same-level peers, so one interactive task
	// cannot sit on a CPU for its whole (recharged) quantum while
	// equally interactive tasks wait.
	if m.ops.Dynamic != nil {
		if preempt, rotation := m.ops.Dynamic.TickPreempt(c.id, t); preempt {
			if rotation {
				m.stats.TimesliceRotations++
			} else {
				m.stats.TickPreemptions++
			}
			t.InvSwitches++
			c.interrupt(now)
			m.reschedule(c, now)
		}
	}
}

// ensureTick re-arms a parked timer chain before the CPU does work. It
// runs at the top of every reschedule, so quantum accounting under
// tickless idle is exact: the chain resumes on its original grid — the
// first conceptual firing strictly after now — and every elided instant
// up to now counts as skipped. Instants at exactly now are skipped too:
// the always-on chain's tick there was armed a full period earlier, so
// it fired before whatever event woke this CPU and was an idle no-op.
func (c *CPU) ensureTick(now sim.Time) {
	if c.tickEv.Pending() {
		return
	}
	// No grid anchor: the chain died at an offline firing, and only
	// OnlineCPU revives it. An online CPU reaching here is someone
	// resurrecting a processor behind OnlineCPU's back — CheckAll's tick
	// chain predicate, which healing silently would hide.
	if c.tickNext == 0 {
		return
	}
	c.skipTicksThrough(now)
	c.m.eng.Schedule(&c.tickEv, c.tickNext)
}

// skipTicksThrough brings a parked chain's grid anchor forward to the
// first conceptual firing strictly after t, counting every instant it
// passes (those at exactly t included) as a skipped tick. A chain with no
// anchor, or one already past t, is left alone — so the same instants are
// never counted twice.
func (c *CPU) skipTicksThrough(t sim.Time) {
	if c.tickNext == 0 || c.tickNext > t {
		return
	}
	k := uint64(t-c.tickNext)/DefaultTickCycles + 1
	c.m.stats.TicksSkipped += k
	c.tickNext += sim.Time(k * DefaultTickCycles)
}

// startSegment begins (or resumes) the proc's current work segment. A
// proc executing outside its memory domain runs stretched: the segment's
// work takes RemoteAccessPct percent longer in wall time, the sustained
// price of crossing the interconnect on every access.
func (c *CPU) startSegment(now sim.Time) {
	p := c.current
	if p.remaining == 0 {
		p.remaining = 1 // keep virtual time strictly advancing
	}
	wall := p.remaining
	if !c.home(p) {
		wall += p.remaining * c.m.env.Cost.RemoteAccessPct / 100
	}
	c.arm(p, now, wall)
}

// arm schedules the end of a segment of p.remaining cycles of work that
// takes wall cycles of wall time: the same at home, more when stretched.
// It stays within the inlining budget so that segmentDone's common case
// re-arms without a call of its own.
func (c *CPU) arm(p *Proc, now sim.Time, wall uint64) {
	p.segWork = p.remaining
	p.segWall = wall
	c.segStart = now
	c.m.eng.Schedule(&c.runEv, now+sim.Time(wall))
}

// segmentDone fires when the current segment's cycles have elapsed. Most
// segments are a program's user-mode Compute run at home, followed by
// another, and that case runs here in one frame: credit, Step, re-arm.
// memDomain moves only in creditWork, between segments, so a segment that
// ends at home was armed unstretched, owes no remote cycles, and the next
// one is armed unstretched too; credit itself tells system from user
// time. Everything else — a completion handler to run, a preemption due,
// work abroad, any other next action — takes the general path.
func (c *CPU) segmentDone(now sim.Time) {
	p := c.current
	if p.onDone == nil && !c.needResched && c.home(p) {
		c.credit(p, p.remaining, 0)
		p.remaining = 0
		act := p.prog.Step(p)
		p.Steps++
		if a, ok := act.(Compute); ok && a.Cycles != 0 {
			p.remaining = a.Cycles
			c.arm(p, now, a.Cycles)
			return
		}
		c.doAction(act, now)
		return
	}
	if p.segWall > p.segWork {
		c.m.stats.RemoteCycles += p.segWall - p.segWork
	}
	c.creditWork(p, p.remaining)
	p.remaining = 0
	done := p.onDone
	p.onDone = nil
	if done != nil {
		done(c, now)
		return
	}
	c.nextAction(now)
}

// nextAction asks the program what to do and starts it. A pending
// needResched (wake-up preemption that landed mid-decision) is honored
// first: syscall boundaries are preemption points.
func (c *CPU) nextAction(now sim.Time) {
	m := c.m
	p := c.current
	if p == nil {
		return
	}
	if c.needResched {
		c.needResched = false
		p.Task.InvSwitches++
		m.reschedule(c, now)
		return
	}
	act := p.prog.Step(p)
	p.Steps++
	c.doAction(act, now)
}

// doAction arms the segment that carries out the current proc's next
// action; a nil action ends the task like Exit. Every caller reaches it
// between segments, with no completion handler armed.
func (c *CPU) doAction(act Action, now sim.Time) {
	m := c.m
	p := c.current
	switch a := act.(type) {
	case Compute:
		p.remaining = a.Cycles
	case *Syscall:
		// Proc.Call armed it in the proc's own slot: nothing to copy,
		// and operand mutations across retries (Reserved) stay private.
		if a != &p.syscallBuf {
			panic("kernel: a *Syscall action must be the proc's own slot, armed with Proc.Call")
		}
		p.inSyscall = true
		p.remaining = a.Cost + m.env.Cost.SyscallBase
		p.onDone = runSyscall
	case Yield:
		p.remaining = m.env.Cost.SyscallBase
		p.onDone = doYield
	case Sleep:
		p.syscallBuf.Cost = a.Cycles
		p.remaining = m.env.Cost.SyscallBase
		p.onDone = doSleep
	case *Sleep:
		p.syscallBuf.Cost = a.Cycles
		p.remaining = m.env.Cost.SyscallBase
		p.onDone = doSleep
	case Exit, nil:
		p.remaining = m.env.Cost.SyscallBase
		p.onDone = doExit
	default:
		panic("kernel: unknown action type")
	}
	c.startSegment(now)
}

// runSyscall executes the in-flight syscall's effect at segment end. The
// effect runs in this CPU's syscall context: wake-ups it issues carry the
// CPU as the waker for SD_WAKE_IDLE placement.
func runSyscall(c *CPU, now sim.Time) {
	p := c.current
	m := c.m
	m.wakerCPU = int32(c.id)
	out := p.syscallBuf.Exec(&p.syscallBuf, p, now)
	m.wakerCPU = -1
	if out.Delay > 0 {
		// Spinning on a serialized kernel resource: burn the cycles,
		// then recheck.
		p.remaining = out.Delay
		p.onDone = runSyscall
		c.startSegment(now)
		return
	}
	if out.Wait != nil {
		// Block: leave inSyscall set so the condition is rechecked
		// after wake-up, like a kernel wait loop.
		p.Task.State = task.Interruptible
		p.Task.VolSwitches++
		p.sleepFrom = now
		out.Wait.enqueue(p)
		c.m.reschedule(c, now)
		return
	}
	p.inSyscall = false
	c.nextAction(now)
}

// doYield implements sys_sched_yield: set the SCHED_YIELD bit and call
// schedule().
func doYield(c *CPU, now sim.Time) {
	p := c.current
	c.m.stats.YieldCalls++
	p.Task.Yielded = true
	p.Task.VolSwitches++
	c.m.reschedule(c, now)
}

// doSleep completes a Sleep action's syscall segment by blocking the proc
// on a timer. The requested duration was parked in the syscall slot's
// Cost, free while a Sleep is armed, so the completion handler is this
// one static function rather than a closure.
func doSleep(c *CPU, now sim.Time) {
	p := c.current
	m := c.m
	p.Task.State = task.Interruptible
	p.Task.VolSwitches++
	p.sleepFrom = now
	p.sleepEv = m.eng.After(p.syscallBuf.Cost, "sleep-wake", p.sleepWakeFn)
	m.reschedule(c, now)
}

// doExit terminates the proc.
func doExit(c *CPU, now sim.Time) {
	p := c.current
	m := c.m
	p.exited = true
	p.Task.State = task.Zombie
	m.alive--
	m.reschedule(c, now)
}

// reschedule is the kernel's schedule(): pick the next task under the
// run-queue lock, account the cost, and complete the context switch after
// the decision's virtual duration.
func (m *Machine) reschedule(c *CPU, now sim.Time) {
	if !c.online() {
		panic("kernel: schedule() on an offline CPU")
	}
	prev := c.current
	prevTask := c.idleTask
	if prev != nil {
		prevTask = prev.Task
	}
	c.current = nil
	c.transitioning = true
	c.publish()
	if prev == nil {
		// Leaving idle: account the idle stretch.
		m.stats.IdleCycles += uint64(now - c.idleFrom)
	}

	lock := m.rqLockFor(c.id)
	start, spin := lock.acquire(now)
	epoch0 := m.env.Epoch.N()
	res := m.sched.Schedule(c.id, prevTask)
	hold := res.Cycles + m.env.Cost.LockOp
	lock.release(start + sim.Time(hold))

	m.stats.SchedCalls++
	m.stats.SchedCycles += res.Cycles
	m.stats.SpinCycles += spin
	m.stats.Examined += uint64(res.Examined)
	m.stats.Recalcs += uint64(res.Recalcs)
	m.stats.PerSchedule.Observe(res.Cycles + spin)
	m.stats.ExaminedDist.Observe(uint64(res.Examined))
	if m.cfg.Trace != nil {
		m.cfg.Trace(TraceEvent{
			Now: now, CPU: c.id, Prev: prevTask, Next: res.Next,
			Examined: res.Examined, Cycles: res.Cycles, Spin: spin,
			Recalcs: res.Recalcs,
		})
	}

	// The previous task is no longer executing (unless re-chosen).
	if prev != nil {
		m.noteRunning(prevTask, false)
		prevTask.HasCPU = false
		prev.workStamp = c.work
		m.refile(prev)
		if prevTask != res.Next && prevTask.Runnable() && prevTask.OnRunqueue() {
			if !prevTask.AllowedOn(c.id) {
				// Affinity moved under the running task (SetAffinity,
				// cpuset restore at online): this CPU may never pick it
				// again, and with per-CPU queues it just landed on a
				// foreign queue. Full wake-path kick, preemption
				// included — the task has nowhere else to go.
				m.rescheduleIdle(prev)
			} else if prevTask.RealTime() || prevTask.Counter(m.env.Epoch) > 0 {
				// Still selectable but this CPU chose someone else (wake
				// preemption, higher goodness): 2.4's __schedule_tail
				// runs reschedule_idle(prev) here so another processor
				// picks the loser up. Idle CPUs only; exhausted tasks
				// wait for the recalc, which delivers its own kicks.
				m.kickIdleAllowed(prevTask)
			}
		}
	}

	next := res.Next
	delay := uint64(start-now) + res.Cycles
	var nextProc *Proc
	if next == nil {
		m.stats.IdleSwitches++
	} else {
		nextProc = m.procOf(next)
		if next != prevTask {
			m.stats.CtxSwitches++
			delay += m.env.Cost.ContextSwitch
			if next.MM != prevTask.MM {
				m.stats.MMSwitches++
				delay += m.env.Cost.MMSwitch
			}
			penalty := m.cachePenalty(c, nextProc)
			m.stats.CacheCycles += penalty
			delay += penalty
		}
		if next.EverRan && next.Processor != c.id {
			m.stats.Migrations++
			next.Migrations++
			if !m.env.Topo.SameDomain(next.Processor, c.id) {
				m.stats.CrossDomainMigrations++
			}
		}
		next.Dispatches++
		if nextProc.memDomain < 0 {
			// First-touch: the task's memory lands in the domain of its
			// first dispatch.
			nextProc.memDomain = int16(c.dom)
		}
		// Claim the task immediately so no other CPU's decision can
		// pick it during the switch window.
		next.HasCPU = true
		next.Processor = c.id
		next.EverRan = true
		nextProc.lastDispatched = now
		nextProc.wdFlagged = false
		m.noteRunning(next, true)
		m.refile(nextProc)
	}

	if next != nil {
		// Work is arriving: restart a tick chain parked by tickless idle.
		// An idle-to-idle schedule() (boot kicks, Run restarts, kicks that
		// lost their race) leaves the chain parked — the tick only matters
		// when something runs. Armed here, before the dispatch event
		// below, so a tick landing at the same instant as the dispatch
		// keeps the always-on firing order.
		c.ensureTick(now)
	}
	c.dispatchNext = nextProc
	c.publish()
	m.eng.Schedule(&c.dispatchEv, now+sim.Time(delay))

	recalculated := m.env.Epoch.N() != epoch0
	if recalculated {
		m.recount()
	}
	if next != nil || recalculated {
		// This decision changed what other CPUs can see, and schedule()
		// took at most one task: deliver the kicks it owes.
		m.kickIdleBacklog()
	}
}

// dispatchArrive completes the context switch armed by reschedule. At most
// one is in flight per CPU (transitioning gates reschedule), so the chosen
// proc rides in dispatchNext rather than a per-switch closure.
func (c *CPU) dispatchArrive(now sim.Time) {
	p := c.dispatchNext
	c.dispatchNext = nil
	if !c.online() {
		c.m.offlineDispatch(c, p)
		return
	}
	c.m.dispatch(c, p, now)
}

// offlineDispatch lands a context switch whose CPU was hot-unplugged
// mid-transition. The chosen task was claimed (HasCPU) when the decision
// was made, so no other CPU could take it in flight; instead of starting
// it here — an offline CPU must never run a task — it is released back to
// the run queue and the surviving CPUs are nudged.
func (m *Machine) offlineDispatch(c *CPU, p *Proc) {
	c.transitioning = false
	c.needResched = false
	c.publish()
	if p != nil && m.release(c, p) {
		m.rescheduleIdle(p)
	}
}

// release takes a claimed or running task off a CPU that is going away
// and, if it is still runnable, re-files it for the survivors, reporting
// whether it did. Del-then-Add: under the global policies the claimed
// task still carries the run-list marker even though Schedule pulled it
// out of the structure (footnote 3), so a bare "re-add if not on queue"
// would skip it and strand the task — marked queued, in no list,
// invisible to every scheduler count (fuzzer seed -74). DelFromRunqueue
// clears the illusion (or the real listing, for policies that keep
// running tasks listed) and the re-add files it where survivors can
// pick it.
func (m *Machine) release(c *CPU, p *Proc) bool {
	t := p.Task
	m.noteRunning(t, false)
	t.HasCPU = false
	p.workStamp = c.work
	if !t.Runnable() {
		m.refile(p)
		return false
	}
	m.sched.DelFromRunqueue(t)
	m.enqueue(p, m.env.Cost.AddRunqueue+m.env.Cost.LockOp)
	return true
}

// dispatch completes the context switch started by reschedule.
func (m *Machine) dispatch(c *CPU, p *Proc, now sim.Time) {
	c.transitioning = false
	c.current = p
	c.publish()
	if p == nil {
		c.idleFrom = now
		if c.needResched {
			// A wake-up landed during the switch-to-idle window.
			c.needResched = false
			m.reschedule(c, now)
		}
		return
	}
	if p.remaining > 0 || p.onDone != nil || p.inSyscall {
		// Resume the interrupted segment or retry a blocked syscall.
		if p.remaining == 0 && p.inSyscall && p.onDone == nil {
			p.remaining = syscallRetryCost
			p.onDone = runSyscall
		}
		c.startSegment(now)
		return
	}
	c.nextAction(now)
}

// cachePenalty models the refill cost of dispatching p on c: zero if the
// CPU's cache still holds p's working set, growing with the work other
// tasks have done there since, and full after a migration. This is the
// cost the 15-point affinity bonus exists to avoid, and the price ELSC
// pays for its extra cross-CPU placements (Figure 6).
func (m *Machine) cachePenalty(c *CPU, p *Proc) uint64 {
	cost := &m.env.Cost
	t := p.Task
	if !t.EverRan {
		return cost.CacheRefillMax / 2 // cold start
	}
	if t.Processor != c.id {
		if !m.env.Topo.SameDomain(t.Processor, c.id) {
			// The working set lives in a foreign domain's cache (or its
			// memory): refilling crosses the interconnect.
			return cost.CrossDomainRefillMax
		}
		return cost.CacheRefillMax
	}
	pollution := c.work - p.workStamp
	pen := pollution / cost.CacheRefillPerWork
	if pen > cost.CacheRefillMax {
		pen = cost.CacheRefillMax
	}
	return pen
}
