package kernel

import "elsc/internal/sim"

// Program is the behavior of a simulated task: a state machine that yields
// one Action at a time. Step is called when the previous action has
// completed; returning nil ends the task (equivalent to Exit).
//
// Programs run on simulated CPUs, so they must not block or sleep in Go;
// all waiting is expressed through actions.
type Program interface {
	Step(p *Proc) Action
}

// ProgramFunc adapts a plain function to the Program interface.
type ProgramFunc func(p *Proc) Action

// Step implements Program.
func (f ProgramFunc) Step(p *Proc) Action { return f(p) }

// Action is one step of simulated task behavior. The concrete types are
// Compute, Syscall, Yield, Sleep, and Exit.
type Action interface {
	isAction()
}

// Compute burns CPU cycles doing user-mode work. It is interruptible by
// quantum expiry and preemption; the remainder carries over.
type Compute struct {
	Cycles uint64
}

func (Compute) isAction() {}

// Syscall crosses into the kernel: Cost cycles of system time, then the
// effect Exec runs at the completion instant. The effect may complete the
// call (return Done) or block the task on a wait queue, in which case the
// kernel re-runs it after each wake-up — the condition-recheck loop of a
// Linux wait queue, tolerant of spurious wakeups.
//
// A program issues one with Proc.Call, which writes it into the proc's
// own syscall slot and returns that slot as the action: a syscall is
// written once, where the kernel reads it, and costs no interface
// boxing. Exec receives the slot itself, so a static effect function
// reads its per-call operands from the Syscall's fields instead of a
// captured environment, and operand mutations across block/retry cycles
// (Reserved) stay private to the calling task. Only *Syscall is an
// Action, and only the proc's own slot is accepted.
type Syscall struct {
	Cost uint64
	Exec SyscallExec
	// Obj is the operation's target (an IPC queue, a mutex, ...).
	Obj any
	// Ptr is an output destination or auxiliary callback (a message
	// pointer, a deferred message constructor, ...).
	Ptr any
	// Flag is a boolean output destination (TryRecv's got).
	Flag *bool
	// Args carries scalar operands (message fields).
	Args [3]int64
	// Reserved marks a once-per-instance gate as already passed; it
	// survives block/retry cycles because it lives in the proc's own
	// syscall slot.
	Reserved bool
}

// SyscallExec is a syscall effect. sc is the calling proc's syscall slot,
// valid across retries.
type SyscallExec func(sc *Syscall, p *Proc, now sim.Time) Outcome

func (*Syscall) isAction() {}

// Yield is sys_sched_yield: sets the SCHED_YIELD bit and calls schedule().
type Yield struct{}

func (Yield) isAction() {}

// Sleep blocks the task for a fixed virtual duration (e.g. simulated disk
// latency or a think time).
type Sleep struct {
	Cycles uint64
}

func (Sleep) isAction() {}

// Exit terminates the task.
type Exit struct{}

func (Exit) isAction() {}

// Outcome is the result of a Syscall's Exec.
type Outcome struct {
	// Wait, when non-nil, blocks the task on that wait queue; the
	// syscall is retried on wake-up.
	Wait *WaitQueue
	// Delay, when non-zero, keeps the caller executing in-kernel for
	// that many more cycles and then re-runs Exec — used to model spinning
	// on serialized kernel resources (e.g. the big kernel lock around
	// the 2.3.x network stack).
	Delay uint64
}

// Done completes the syscall.
func Done() Outcome { return Outcome{} }

// BlockOn suspends the caller on wq until woken.
func BlockOn(wq *WaitQueue) Outcome { return Outcome{Wait: wq} }

// DelayFor re-runs the syscall's Exec after d more cycles of kernel time.
func DelayFor(d uint64) Outcome { return Outcome{Delay: d} }
