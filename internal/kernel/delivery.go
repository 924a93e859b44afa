package kernel

import (
	"fmt"
	"math/bits"

	"elsc/internal/task"
)

// cpuBit is CPU id's bit in the machine's CPU masks.
func cpuBit(id int) uint64 { return 1 << uint(id) }

// stateBits derives, from the CPU's own fields, its bit in each of the
// published state masks (zero where the CPU is not in that state).
func (c *CPU) stateBits() (idle, switching, almostIdle uint64) {
	bit := cpuBit(c.id)
	switch {
	case !c.online():
	case c.transitioning:
		switching = bit
		if c.dispatchNext == nil {
			almostIdle = bit
		}
	case c.current == nil:
		idle = bit
	}
	return
}

// publish brings the machine's published state masks in step with this
// CPU. Every site that flips online, current, transitioning or
// dispatchNext calls it before anything can read the masks. (The kicked
// mask needs no publishing: sendIPI and ipiArrive write it directly.)
func (c *CPU) publish() {
	m, clear := c.m, ^cpuBit(c.id)
	idle, switching, almostIdle := c.stateBits()
	m.idle = m.idle&clear | idle
	m.switching = m.switching&clear | switching
	m.almostIdle = m.almostIdle&clear | almostIdle
}

// lowest returns the lowest-numbered CPU in a non-empty mask.
func (m *Machine) lowest(mask uint64) *CPU { return m.cpus[bits.TrailingZeros64(mask)] }

// allowed returns the CPUs t's affinity mask permits.
func (m *Machine) allowed(t *task.Task) uint64 {
	if t.CPUsAllowed == 0 {
		return m.allCPUs
	}
	return t.CPUsAllowed & m.allCPUs
}

// visibleTo returns the CPUs whose Schedule can see queued task t: the
// policy's declared sched.Visibility, applied.
func (m *Machine) visibleTo(t *task.Task) uint64 {
	if m.ownerOnly {
		return cpuBit(t.QIndex)
	}
	return m.allCPUs
}

// deliverableTo is the deliverable predicate (see the package doc): the
// CPUs whose schedule() could pick t right now, zero if t is not queued,
// already claimed, or exhausted.
func (m *Machine) deliverableTo(t *task.Task) uint64 {
	if !t.Runnable() || t.HasCPU || !t.OnRunqueue() {
		return 0
	}
	if !t.RealTime() && t.Counter(m.env.Epoch) == 0 {
		return 0
	}
	return m.allowed(t) & m.visibleTo(t)
}

// count adds d to the deliverable count of every CPU in mask. A task
// every CPU can take is one increment of wide, not one per CPU.
func (m *Machine) count(mask uint64, d int) {
	if mask == m.allCPUs {
		m.wide += d
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		c := m.lowest(mask)
		c.narrow += d
		if c.narrow > 0 {
			m.narrow |= cpuBit(c.id)
		} else {
			m.narrow &^= cpuBit(c.id)
		}
	}
}

// refile re-derives p's contribution to the deliverable counts. Called
// wherever an input of deliverableTo changes for one task: enqueue and
// dequeue, claim and release around a dispatch, affinity, class and
// priority changes, and a policy's Requeued report.
func (m *Machine) refile(p *Proc) {
	if now := m.deliverableTo(p.Task); now != p.deliverable {
		m.count(p.deliverable, -1)
		m.count(now, +1)
		p.deliverable = now
	}
}

// recount refiles every proc: after a recalculation (every exhausted task
// is charged at once — the walk the cost model bills as RecalcPerTask)
// and after a policy switch (visibility itself changed).
func (m *Machine) recount() {
	for _, p := range m.procs {
		m.refile(p)
	}
}

// owed returns the CPUs with at least one deliverable task.
func (m *Machine) owed() uint64 {
	if m.wide > 0 {
		return m.allCPUs
	}
	return m.narrow
}

// kickIdleAllowed kicks one idle, not yet kicked CPU the task may run on,
// preferring its cache-warm last processor. Unlike rescheduleIdle it
// never preempts: a task that just lost a goodness comparison has no
// claim on a busy CPU.
func (m *Machine) kickIdleAllowed(t *task.Task) {
	free := m.allowed(t) & m.idle &^ m.kicked
	if free == 0 {
		return
	}
	if t.EverRan && free&cpuBit(t.Processor) != 0 {
		m.cpus[t.Processor].sendIPI()
		return
	}
	m.lowest(free).sendIPI()
}

// kickIdleBacklog delivers what a schedule() that dispatched or
// recalculated owes: every idle CPU with deliverable work and no kick in
// flight is kicked, and every almost-idle one is flagged so its to-idle
// completion re-runs schedule(). A kicked CPU whose policy still declines
// goes back to idle without re-arming anything, so this cannot loop.
func (m *Machine) kickIdleBacklog() {
	for w := m.owed() & (m.idle | m.almostIdle) &^ m.kicked; w != 0; w &= w - 1 {
		if c := m.lowest(w); m.idle&cpuBit(c.id) != 0 {
			c.sendIPI()
		} else {
			c.needResched = true
		}
	}
}

// tickRescueNeeded reports whether idle CPU c's timer tick found a
// deliverable task with no delivery in flight anywhere — a lost kick,
// or a policy declining work it can structurally see. An IPI in flight
// or a CPU mid-switch will look at the queue on its own.
func (m *Machine) tickRescueNeeded(c *CPU) bool {
	return m.kicked|m.switching == 0 && m.owed()&cpuBit(c.id) != 0
}

// nudgeOnline makes queued work visible to every online CPU that will not
// otherwise run schedule(): idle ones are kicked, mid-switch ones flagged
// to re-pick at dispatch. Used after bulk queue changes (hotplug drains,
// policy switches) and to re-route IPIs that landed on an offline CPU.
func (m *Machine) nudgeOnline() {
	if m.sched.Runnable() == 0 {
		return
	}
	for w := m.idle; w != 0; w &= w - 1 {
		m.lowest(w).sendIPI()
	}
	for w := m.switching; w != 0; w &= w - 1 {
		m.lowest(w).needResched = true
	}
}

// CheckDelivery audits the delivery bookkeeping and the delivery rule
// from scratch, at an event boundary: every state-mask bit against the
// CPU state it summarises (the kicked mask against the IPI events in
// flight), every proc's cached contribution and the per-CPU counts
// against a brute-force recomputation, and the rule itself — each
// deliverable task has an online CPU that can take it and will run
// schedule() unaided. This scan is the reference the incremental counts
// replaced; it allocates only to describe a failure.
func (m *Machine) CheckDelivery() error {
	var idle, kicked, switching, almostIdle, attentive uint64
	for _, c := range m.cpus {
		i, s, a := c.stateBits()
		idle, switching, almostIdle = idle|i, switching|s, almostIdle|a
		if c.ipiEv.Pending() {
			kicked |= cpuBit(c.id)
		}
		// A CPU attends to its queue unaided when an IPI is on its way
		// (an offline target re-routes it), or it is online and runs a
		// task, is switching to one, is flagged needResched, or still
		// has a tick armed (an idle tick polls tickRescueNeeded).
		if c.ipiEv.Pending() || c.online() && (c.current != nil || c.dispatchNext != nil || c.needResched || c.tickEv.Pending()) {
			attentive |= cpuBit(c.id)
		}
	}
	if idle != m.idle || kicked != m.kicked || switching != m.switching || almostIdle != m.almostIdle {
		return fmt.Errorf("delivery: state masks idle=%#x kicked=%#x switching=%#x almostIdle=%#x, CPU state says %#x %#x %#x %#x",
			m.idle, m.kicked, m.switching, m.almostIdle, idle, kicked, switching, almostIdle)
	}
	online := m.env.OnlineMask()
	var want [64]int
	for _, p := range m.procs {
		to := m.deliverableTo(p.Task)
		if to != p.deliverable {
			return fmt.Errorf("delivery: %s cached as deliverable to %#x, is to %#x", p.Task, p.deliverable, to)
		}
		for w := to; w != 0; w &= w - 1 {
			want[bits.TrailingZeros64(w)]++
		}
		if to&online != 0 && to&attentive == 0 {
			return fmt.Errorf("delivery: %s is deliverable to %#x and no CPU there will schedule unaided (idle=%#x kicked=%#x)",
				p.Task, to, m.idle, m.kicked)
		}
	}
	for _, c := range m.cpus {
		if got := m.wide + c.narrow; got != want[c.id] || (c.narrow > 0) != (m.narrow&cpuBit(c.id) != 0) {
			return fmt.Errorf("delivery: cpu%d counts %d deliverable tasks (narrow mask %#x), recount says %d",
				c.id, got, m.narrow, want[c.id])
		}
	}
	return nil
}
