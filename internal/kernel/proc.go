package kernel

import (
	"elsc/internal/klist"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// Proc binds a task to its program and carries the execution state the
// kernel needs between dispatches: the remaining cycles of the current
// action, an in-flight syscall awaiting its effect or retry, wait-queue
// linkage, and the cache-model stamp.
//
// A chat benchmark builds one Proc per simulated thread, so the record is
// packed into the allocator's 256-byte class. Objects of that class start
// on a 256-byte boundary, and the fields are ordered so that the segment
// path (segmentDone with its credit and arm helpers, creditWork,
// startSegment, interrupt, nextAction) reads and writes only the first
// two 64-byte cache lines, Task through sleepEv; TestProcSize holds the
// fields it touches there.
type Proc struct {
	Task *task.Task
	M    *Machine

	prog Program

	// remaining is what is left of the current work segment.
	remaining uint64
	// onDone runs when the segment completes; nil means ask the program
	// for the next action.
	onDone func(c *CPU, now sim.Time)
	// segWork and segWall describe the armed segment: segWork cycles of
	// real work scheduled to take segWall cycles of wall time (equal
	// unless executing remotely).
	segWork uint64
	segWall uint64

	// workStamp is the owning CPU's work clock when this proc last left
	// it, for the cache-refill model.
	workStamp uint64

	// NUMA memory model. memDomain is the cache domain holding the
	// task's working set — first-touch at its first dispatch. Execution
	// in any other domain is stretched by Cost.RemoteAccessPct; after
	// RehomeCycles of consecutive execution in one foreign domain the
	// pages migrate there (memDomain rebinds), as AutoNUMA-style page
	// migration would. There are no more domains than CPUs, which a
	// 64-bit mask bounds, so an int16 holds a domain index.
	foreignWork uint64
	memDomain   int16 // -1 until first dispatch
	foreignDom  int16

	// inSyscall marks syscallBuf as the in-flight blocking syscall to
	// (re)run.
	inSyscall bool
	// wdFlagged marks an already-reported starvation episode (cleared at
	// the next dispatch) so one episode is one watchdog violation, not
	// one per sweep.
	wdFlagged bool
	exited    bool

	// Steps counts program actions completed, for tests and traces.
	Steps uint64

	// deliverable caches the CPUs this proc counts as deliverable to in
	// the machine's kick-delivery counts (Machine.refile).
	deliverable uint64

	// waitNode links the proc into a WaitQueue, by pid.
	waitNode  klist.Node
	waitingOn *WaitQueue
	sleepEv   *sim.Event

	// syscallBuf is the proc's own syscall slot that Call arms, so
	// issuing a syscall does not allocate. While a Sleep is armed no
	// syscall is in flight, and its Cost carries the sleep's duration to
	// the completion handler (a static function, not a per-sleep
	// closure).
	syscallBuf Syscall
	// sleepWakeFn is the timer-expiry callback, bound once at spawn.
	sleepWakeFn func(now sim.Time)

	// sleepFrom is when the task last blocked (wait queue or timer); the
	// wake path turns now-sleepFrom into sleep_avg interactivity credit.
	sleepFrom sim.Time

	// savedAffinity holds the task's own CPU mask while cpuset fallback
	// has it widened: when every CPU the mask names is offline, the
	// kernel lets the task run anywhere (Linux cpuset semantics) and
	// re-pins it here as soon as one of its CPUs returns. Zero means no
	// fallback is in effect.
	savedAffinity uint64

	// Watchdog stamps. runnableSince is when the task last became
	// runnable (spawn or wake); lastDispatched is when it last won a
	// schedule() decision. The starvation clock reads from whichever is
	// later.
	runnableSince  sim.Time
	lastDispatched sim.Time
}

// sleepWake fires when the proc's sleep timer expires.
func (p *Proc) sleepWake(sim.Time) {
	p.sleepEv = nil
	p.M.wake(p)
}

// Call arms sc in the proc's own syscall slot and returns the slot as the
// action for Step to hand back. Step only runs while no syscall is in
// flight, so the slot is free to overwrite; the kernel rejects any other
// *Syscall.
func (p *Proc) Call(sc Syscall) Action {
	p.syscallBuf = sc
	return &p.syscallBuf
}

// Exited reports whether the proc has terminated.
func (p *Proc) Exited() bool { return p.exited }

// ExitCursor answers a workload's "has every one of my procs exited?" stop
// predicate, asked after every event, in amortised O(1): exit is permanent,
// so the index of the first live proc only moves forward. The zero value
// is ready; pass the same append-only slice each time.
type ExitCursor struct{ live int }

// AllExited reports whether every proc in procs has exited.
func (c *ExitCursor) AllExited(procs []*Proc) bool {
	for c.live < len(procs) && procs[c.live].exited {
		c.live++
	}
	return c.live == len(procs)
}
