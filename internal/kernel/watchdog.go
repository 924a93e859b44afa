package kernel

import (
	"fmt"

	"elsc/internal/sim"
)

// WatchdogKind classifies a watchdog violation.
type WatchdogKind int

const (
	// WatchdogStarvation: a runnable, queued task has waited longer than
	// the load-scaled threshold without being scheduled.
	WatchdogStarvation WatchdogKind = iota
	// WatchdogInvariant: Machine.CheckAll failed; Err names the
	// predicate (a task lost from every queue, a dead tick chain, drift
	// in the delivery bookkeeping, ...).
	WatchdogInvariant
)

// String names the violation kind for traces and test failures.
func (k WatchdogKind) String() string {
	switch k {
	case WatchdogStarvation:
		return "starvation"
	case WatchdogInvariant:
		return "invariant"
	}
	return fmt.Sprintf("watchdog-kind-%d", int(k))
}

// WatchdogViolation describes one detection, at the virtual instant the
// sweep caught it — not end-of-run.
type WatchdogViolation struct {
	Kind WatchdogKind
	Now  sim.Time
	// P is the starved task (starvation only).
	P *Proc
	// Waited is how long the task has been runnable-but-unscheduled, in
	// cycles (starvation only).
	Waited uint64
	// Err is what CheckAll reported (invariant violations only).
	Err error
}

// String renders a violation as a one-line trace record.
func (v WatchdogViolation) String() string {
	if v.Kind == WatchdogInvariant {
		return fmt.Sprintf("watchdog: invariant %v t=%d", v.Err, v.Now)
	}
	name, id := "?", 0
	if v.P != nil {
		name, id = v.P.Task.Name, v.P.Task.ID
	}
	return fmt.Sprintf("watchdog: %s task=%s pid=%d waited=%d t=%d",
		v.Kind, name, id, v.Waited, v.Now)
}

const (
	// watchdogPeriod is the sweep interval: 10 tick periods, i.e. 100 ms
	// of virtual time.
	watchdogPeriod = 10 * DefaultTickCycles
	// starveQuanta is the starvation threshold in multiples of the
	// rotation's largest quantum, further scaled by the
	// runnable-per-online-CPU load factor (see threshold). One bar serves
	// every policy: none leaves a runnable task waiting that long at fair
	// share, and the fuzzer hot-swaps among all of them mid-run.
	starveQuanta = 8
)

// WatchdogConfig arms the starvation/lockup watchdog.
type WatchdogConfig struct {
	// OnViolation, when non-nil, fires synchronously at each detection.
	// Counters in Stats accumulate regardless.
	OnViolation func(WatchdogViolation)
}

// watchdog is the periodic detector: one preallocated engine event,
// re-armed each sweep, that audits the machine's invariants and its
// tasks' waits online instead of at end-of-run. Sweeps run at event
// boundaries, where machine state is consistent by construction.
type watchdog struct {
	m   *Machine
	cfg WatchdogConfig
	ev  *sim.Event
}

// sweep is one watchdog pass: re-arm, check every invariant of the
// machine (CheckAll; one violation per failing sweep), then every queued
// task's wait against the starvation threshold. Allocation-free while
// healthy: it walks existing slices and passes violations by value.
func (wd *watchdog) sweep(now sim.Time) {
	m := wd.m
	m.eng.ScheduleAfter(wd.ev, watchdogPeriod)

	if err := m.CheckAll(); err != nil {
		m.stats.WatchdogInvariantFaults++
		if wd.cfg.OnViolation != nil {
			wd.cfg.OnViolation(WatchdogViolation{Kind: WatchdogInvariant, Now: now, Err: err})
		}
	}

	// While a real-time task is runnable or running, SCHED_OTHER tasks
	// starving is policy, not a bug: skip their starvation checks.
	// yardTicks is the largest quantum (in ticks) among live runnable
	// SCHED_OTHER tasks: one turn of the rotation waits behind everyone
	// else's timeslice, so a nice'd-down task's fair-share wait is
	// measured in the big tasks' quanta, not its own tiny one (fuzzer
	// seed 91091: a priority-1 hog among priority-20 hogs legitimately
	// waits hundreds of its own 2-tick slices for one rotation).
	rtActive := false
	yardTicks := 0
	for _, p := range m.procs {
		if p.exited || !p.Task.Runnable() {
			continue
		}
		if p.Task.RealTime() {
			rtActive = true
			continue
		}
		if mc := p.Task.MaxCounter(); mc > yardTicks {
			yardTicks = mc
		}
	}

	online := m.env.OnlineCount()
	runnable := m.sched.Runnable()
	for _, p := range m.procs {
		t := p.Task
		if p.exited || p.wdFlagged || !t.Runnable() || t.HasCPU || !t.OnRunqueue() {
			continue
		}
		if rtActive && !t.RealTime() {
			continue
		}
		waited := wd.waited(p, now)
		if float64(waited) > wd.threshold(yardTicks, runnable, online) {
			p.wdFlagged = true
			m.stats.WatchdogStarvations++
			if wd.cfg.OnViolation != nil {
				wd.cfg.OnViolation(WatchdogViolation{
					Kind: WatchdogStarvation, Now: now, P: p, Waited: waited,
				})
			}
		}
	}
}

// waited is how long p has been runnable without reaching a CPU: since it
// last became runnable or last won a dispatch, whichever is later (a
// preempted task was on-CPU at lastDispatched, so runnableSince alone
// would overstate its wait).
func (wd *watchdog) waited(p *Proc, now sim.Time) uint64 {
	since := p.runnableSince
	if p.lastDispatched > since {
		since = p.lastDispatched
	}
	if now <= since {
		return 0
	}
	return uint64(now - since)
}

// threshold is the starvation bound in cycles: starveQuanta full quanta of
// the largest runnable task's size (yardTicks — what one turn of the
// rotation actually waits behind), scaled by how oversubscribed the
// machine is (with k runnable tasks per online CPU, waiting k quanta is
// fair-share behavior, not starvation).
func (wd *watchdog) threshold(yardTicks, runnable, online int) float64 {
	quantum := float64(uint64(yardTicks) * DefaultTickCycles)
	load := 1.0
	if online > 0 {
		load += float64(runnable) / float64(online)
	}
	return starveQuanta * quantum * load
}
