package kernel

import (
	"fmt"
	"math/bits"
)

// CheckAll audits the machine against every predicate of its state, at an
// event boundary, and returns the first that fails, named by its label:
//
//  1. state masks: idle, switching and almostIdle match each CPU's state,
//     and a CPU's kicked bit is set exactly while its ipiEv is pending;
//  2. deliverable counts: each proc's cached deliverable mask, and the
//     per-CPU deliverable counts, match a recount;
//  3. delivery rule: every deliverable task has a CPU that can take it and
//     will run schedule() unaided (see the package doc);
//  4. census: every live runnable task holds a CPU or is queued, and the
//     policy's Runnable() equals the queued count;
//  5. segment event: a CPU's runEv is pending exactly while it has a
//     current proc;
//  6. dispatch event: a CPU's dispatchEv is pending exactly while it is
//     transitioning;
//  7. tick chain: every online CPU has a tick pending, or its chain is
//     parked with a grid anchor (tickNext != 0) for ensureTick to resume.
//
// Everything is recomputed by brute force from the state the incremental
// bookkeeping summarises. The watchdog runs it every sweep, the scenario
// fuzzer around every injection; a test that wants it after every event
// calls it from Machine.Run's stop function. It allocates only to
// describe a failure.
func (m *Machine) CheckAll() error {
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
		return fmt.Errorf("state masks: idle=%#x kicked=%#x switching=%#x almostIdle=%#x, CPU state says %#x %#x %#x %#x",
			m.idle, m.kicked, m.switching, m.almostIdle, idle, kicked, switching, almostIdle)
	}

	var want [64]int
	queued := 0
	for _, p := range m.procs {
		t := p.Task
		to := m.deliverableTo(t)
		if to != p.deliverable {
			return fmt.Errorf("deliverable counts: %s cached as deliverable to %#x, is to %#x", t, p.deliverable, to)
		}
		for w := to; w != 0; w &= w - 1 {
			want[bits.TrailingZeros64(w)]++
		}
		if to != 0 && to&attentive == 0 {
			return fmt.Errorf("delivery rule: %s is deliverable to %#x and no CPU there will schedule unaided (idle=%#x kicked=%#x)",
				t, to, m.idle, m.kicked)
		}
		if p.exited || !t.Runnable() || t.HasCPU {
			continue
		}
		if !t.OnRunqueue() {
			return fmt.Errorf("census: runnable %s is neither queued nor running", t)
		}
		queued++
	}
	for _, c := range m.cpus {
		if got := m.wide + c.narrow; got != want[c.id] || (c.narrow > 0) != (m.narrow&cpuBit(c.id) != 0) {
			return fmt.Errorf("deliverable counts: cpu%d counts %d deliverable tasks (narrow mask %#x), recount says %d",
				c.id, got, m.narrow, want[c.id])
		}
	}
	if got := m.sched.Runnable(); got != queued {
		return fmt.Errorf("census: the policy reports %d runnable, the task table holds %d queued", got, queued)
	}

	for _, c := range m.cpus {
		if c.runEv.Pending() != (c.current != nil) {
			return fmt.Errorf("segment event: cpu%d rundone pending=%v with current=%v", c.id, c.runEv.Pending(), c.current != nil)
		}
		if c.dispatchEv.Pending() != c.transitioning {
			return fmt.Errorf("dispatch event: cpu%d dispatch pending=%v with transitioning=%v", c.id, c.dispatchEv.Pending(), c.transitioning)
		}
		if c.online() && !c.tickEv.Pending() && c.tickNext == 0 {
			return fmt.Errorf("tick chain: online cpu%d has no tick pending and no grid anchor", c.id)
		}
	}
	return nil
}
