package kernel

import (
	"errors"

	"elsc/internal/sim"
)

// Hotplug errors. Offline/Online refuse rather than panic on redundant or
// impossible requests, so fault-injection harnesses can fire blind.
var (
	// ErrCPUOffline: OfflineCPU of a CPU that is already offline.
	ErrCPUOffline = errors.New("kernel: CPU already offline")
	// ErrCPUOnline: OnlineCPU of a CPU that is already online.
	ErrCPUOnline = errors.New("kernel: CPU already online")
	// ErrLastCPU: OfflineCPU would leave the machine with no processor.
	ErrLastCPU = errors.New("kernel: cannot offline the last online CPU")
)

// OfflineCPU hot-unplugs processor id, like Linux's cpu_down: the running
// task is preempted and re-queued, the policy's per-CPU structures are
// drained and their tasks re-homed, tasks affined solely to dead CPUs fall
// back to running anywhere (cpuset semantics, undone when a CPU of theirs
// returns), and the CPU's timer chain parks itself. Only the running
// segment's completion event is cancelled (interrupt). The tick, IPI and
// dispatch events in flight are left to land: each no-ops or re-routes
// while the CPU is offline, which keeps their bookkeeping (the kicked
// bit, the claimed dispatchNext, the tick grid) in the one place that
// owns it.
// Hotplug is O(queue length) with zero allocation in steady state.
//
// Call from between-events contexts only (an engine event callback or
// between Run calls), never from inside a syscall effect. The last online
// CPU refuses with ErrLastCPU.
func (m *Machine) OfflineCPU(id int) error {
	if id < 0 || id >= len(m.cpus) {
		panic("kernel: OfflineCPU out of range")
	}
	c := m.cpus[id]
	if !c.online() {
		return ErrCPUOffline
	}
	if m.env.OnlineCount() == 1 {
		return ErrLastCPU
	}
	now := m.eng.Now()
	if c.isIdle() {
		// Close the idle stretch before the clock stops counting it.
		m.stats.IdleCycles += uint64(now - c.idleFrom)
	}
	m.env.SetCPUOnline(id, false)
	c.publish()
	c.offlineFrom = now
	m.stats.CPUOfflines++

	// Cpuset fallback first: a task whose mask names only dead CPUs must
	// be widened before any re-homing below asks the policy to place it,
	// or it would be filed somewhere it can never be picked from.
	m.applyAffinityFallback()

	// Preempt and detach the victim's running task.
	if p := c.current; p != nil {
		c.interrupt(now)
		p.Task.InvSwitches++
		c.current = nil
		m.release(c, p)
	}
	// A dispatch in flight is left alone: dispatchArrive sees the offline
	// CPU and releases its claimed task back to the queue. The pending
	// needResched it might have carried dies with the schedulable state.
	c.needResched = false

	// Drain the dead CPU's own queue, if the policy gives it one, and
	// re-file each task; the policy's online-aware placement re-homes them
	// onto survivors. A shared queue stays where it is: the survivors
	// reach all of it.
	if m.ownerOnly {
		m.drainBuf = m.sched.Drain(id, m.drainBuf[:0])
		for i, t := range m.drainBuf {
			m.enqueue(m.procOf(t), m.env.Cost.AddRunqueue+m.env.Cost.LockOp)
			m.drainBuf[i] = nil
		}
	}

	// Anything that moved is invisible to CPUs already idle or mid-switch;
	// nothing else would trigger their schedule().
	m.nudgeOnline()
	return nil
}

// OnlineCPU hot-plugs processor id back in: its timer chain is restarted
// (under tickless idle it stays parked — the CPU returns idle, and the
// first dispatch that puts work here re-arms the chain exactly once),
// tasks the offline forced into cpuset fallback are re-pinned if their own
// mask is satisfiable again, and the CPU rejoins placement and balancing
// (the online mask bit is what the policies consult).
func (m *Machine) OnlineCPU(id int) error {
	if id < 0 || id >= len(m.cpus) {
		panic("kernel: OnlineCPU out of range")
	}
	c := m.cpus[id]
	if c.online() {
		return ErrCPUOnline
	}
	now := m.eng.Now()
	m.env.SetCPUOnline(id, true)
	c.publish()
	m.stats.CPUOnlines++
	m.stats.OfflineCycles += uint64(now - c.offlineFrom)
	c.idleFrom = now
	if !c.tickEv.Pending() {
		// The parked timer chain. (If the CPU returned within one period
		// the chain never parked and is still pending — re-arming a
		// queued event would panic.)
		if m.cfg.TicklessOff {
			// Restart it one period out, as the pre-tickless kernel did.
			m.eng.ScheduleAfter(&c.tickEv, DefaultTickCycles)
			c.tickNext = 0
		} else {
			// Tickless: the CPU comes back idle, so the chain stays
			// parked — it re-arms once, at the first reschedule that
			// puts work here, not a second time at online. Bring the
			// grid anchor forward first:
			//   - a chain idle-parked before the offline skips the
			//     instants it would have idled through up to the
			//     unplug (its always-on twin fired no-ops there, then
			//     died at its first offline firing);
			//   - a chain that died offline (tickNext 0), or whose
			//     anchor the offline stretch outran, re-anchors at
			//     now+period — exactly what the always-on chain's
			//     online re-arm would have made it.
			c.skipTicksThrough(c.offlineFrom)
			if c.tickNext == 0 || now >= c.tickNext {
				c.tickNext = now + sim.Time(DefaultTickCycles)
			}
		}
	}
	m.restoreAffinity()
	if c.isIdle() && m.sched.Runnable() > 0 {
		c.sendIPI()
	}
	return nil
}

// applyAffinityFallback widens the mask of every live task affined solely
// to offline CPUs, per Linux cpuset fallback: rather than strand the task
// unschedulable, let it run anywhere and remember its own mask for
// restoreAffinity.
func (m *Machine) applyAffinityFallback() {
	mask := m.env.OnlineMask()
	for _, p := range m.procs {
		if p.exited {
			continue
		}
		t := p.Task
		if t.CPUsAllowed == 0 || t.CPUsAllowed&mask != 0 {
			continue
		}
		if p.savedAffinity == 0 {
			p.savedAffinity = t.CPUsAllowed
		}
		m.requeue(p, func() { t.CPUsAllowed = 0 })
	}
}

// restoreAffinity re-pins tasks whose cpuset fallback is over: their own
// saved mask names at least one online CPU again.
func (m *Machine) restoreAffinity() {
	mask := m.env.OnlineMask()
	for _, p := range m.procs {
		if p.exited || p.savedAffinity == 0 || p.savedAffinity&mask == 0 {
			continue
		}
		if m.requeue(p, func() { p.Task.CPUsAllowed, p.savedAffinity = p.savedAffinity, 0 }) {
			m.rescheduleIdle(p)
		}
	}
}

// NumCPU returns the machine's processor count, online or not.
func (m *Machine) NumCPU() int { return len(m.cpus) }
