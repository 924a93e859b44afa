package elsc

import (
	"elsc/internal/ipc"
	"elsc/internal/kernel"
	"elsc/internal/stats"
	"elsc/internal/task"
)

// Re-exported building blocks for writing custom workloads against the
// simulator. A Program yields one Action at a time; the kernel executes
// actions on simulated CPUs under the configured scheduler.

// Program is the behavior of a simulated task.
type Program = kernel.Program

// ProgramFunc adapts a function to Program.
type ProgramFunc = kernel.ProgramFunc

// Proc is the kernel-side handle passed to Program.Step.
type Proc = kernel.Proc

// Action is one step of task behavior.
type Action = kernel.Action

// Compute burns CPU cycles.
type Compute = kernel.Compute

// Syscall crosses into the kernel and may block; a Program issues one
// with Proc.Call.
type Syscall = kernel.Syscall

// Yield is sys_sched_yield.
type Yield = kernel.Yield

// Sleep blocks for a fixed virtual duration.
type Sleep = kernel.Sleep

// Exit terminates the task.
type Exit = kernel.Exit

// AddressSpace is a shared mm; tasks in the same space get the goodness
// memory-map bonus and cheaper context switches.
type AddressSpace = task.MM

// Msg is a message carried by IPC queues.
type Msg = ipc.Msg

// Queue is a blocking FIFO message queue (a loopback socket stand-in).
type Queue = ipc.Queue

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue(capacity int) *Queue { return ipc.NewQueue(capacity) }

// YieldMutex is the JVM-style spin-then-suspend user lock whose yields
// stress the scheduler.
type YieldMutex = ipc.YieldMutex

// NewYieldMutex returns an unlocked mutex.
func NewYieldMutex(tryCost uint64) *YieldMutex {
	return ipc.NewYieldMutex(tryCost)
}

// Stats is the machine-wide scheduler instrumentation.
type Stats = kernel.Stats

// WatchdogConfig arms the starvation/lockup watchdog (MachineConfig.Watchdog).
type WatchdogConfig = kernel.WatchdogConfig

// WatchdogViolation is one liveness violation the watchdog detected.
type WatchdogViolation = kernel.WatchdogViolation

// WatchdogKind classifies a violation.
type WatchdogKind = kernel.WatchdogKind

// The watchdog's violation kinds.
const (
	// WatchdogStarvation: a runnable task queued past the load-scaled
	// wait threshold without being dispatched.
	WatchdogStarvation = kernel.WatchdogStarvation
	// WatchdogInvariant: one of the machine's invariants failed (a task
	// lost from every queue, an online CPU whose timer chain died, a
	// deliverable task no CPU will schedule, ...); Err names which.
	WatchdogInvariant = kernel.WatchdogInvariant
)

// Table renders aligned text tables for experiment output.
type Table = stats.Table

// Hz is the simulated clock rate: 400 MHz, a Pentium II-class machine.
const Hz = kernel.DefaultHz
