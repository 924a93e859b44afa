// Package ipc provides blocking inter-task communication on top of the
// kernel substrate: bounded and unbounded FIFO message queues (which stand
// in for the loopback socket connections VolanoMark uses), and a
// yield-spinning mutex that models the user-level locking of IBM's JDK
// 1.1.7 — the behavior that makes VolanoMark hammer sys_sched_yield and,
// on the stock scheduler, detonate the counter-recalculation loop
// (Figure 2).
package ipc

import (
	"elsc/internal/kernel"
	"elsc/internal/sim"
)

// Msg is one message in flight. Payload identity is up to the workload.
type Msg struct {
	From    int   // sender's connection/user id
	Seq     int   // sender-local sequence number
	Payload int64 // opaque
}

// Queue is a FIFO of messages with blocking Recv and (for bounded queues)
// blocking Send. Cap == 0 means unbounded. It stands in for one direction
// of a socket: the paper's loopback VolanoMark runs put four threads on
// each connection precisely because Java lacked non-blocking I/O.
type Queue struct {
	Cap int

	// Serial, when set, serializes every operation on this queue
	// through a machine-global resource for SerialHold cycles — the
	// 2.3.x-era big-kernel-lock behavior of the socket path. Loopback
	// sockets should share one SerialResource; cheap in-process queues
	// may use a smaller hold or none.
	Serial     *kernel.SerialResource
	SerialHold uint64

	// DeliverLatency delays a sent message's visibility to receivers,
	// modeling 2.3.x loopback delivery through netif_rx and the
	// net bottom-half: data written to a loopback socket is readable on
	// a later softirq run, not instantly. These gaps are where the
	// benchmark's spin-pollers end up yielding as the only runnable
	// task — the paper's recalculation trigger.
	DeliverLatency uint64

	buf       []Msg
	pending   []Msg
	readers   kernel.WaitQueue
	writers   kernel.WaitQueue
	delivered uint64
	sent      uint64

	// deliverFn is the single prebound delivery handler replacing a
	// per-message closure; mach is the machine it wakes on, captured at
	// first deposit. The ops themselves need no per-queue state: each
	// arms a static effect in the caller's own syscall slot.
	deliverFn func(sim.Time)
	mach      *kernel.Machine
}

// NewQueue returns a queue with the given capacity (0 = unbounded). A
// chat benchmark builds one queue per socket direction, so NewQueue
// allocates only the queue and its bound delivery handler: the wait
// queues are held by value.
func NewQueue(capacity int) *Queue {
	q := &Queue{Cap: capacity}
	q.deliverFn = q.deliverOne
	return q
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.buf) }

// Sent returns the number of successful Send completions.
func (q *Queue) Sent() uint64 { return q.sent }

// Delivered returns the number of successful Recv completions.
func (q *Queue) Delivered() uint64 { return q.delivered }

// full reports whether a bounded queue has no room, counting in-flight
// (sent but not yet delivered) messages against the capacity.
func (q *Queue) full() bool { return q.Cap > 0 && len(q.buf)+len(q.pending) >= q.Cap }

// deposit makes m visible to receivers now or after the delivery latency.
// Delayed messages sit in the pending FIFO and one prebound handler moves
// the head across per delivery event; the latency is a per-queue constant,
// so event order matches deposit order and the FIFO discipline holds.
func (q *Queue) deposit(p *kernel.Proc, m Msg) {
	if q.DeliverLatency == 0 {
		q.buf = append(q.buf, m)
		p.M.WakeOne(&q.readers)
		return
	}
	q.mach = p.M
	q.pending = append(q.pending, m)
	p.M.Engine().After(q.DeliverLatency, "ipc-deliver", q.deliverFn)
}

// deliverOne is the delivery-event handler: the oldest pending message
// becomes visible and one reader wakes.
func (q *Queue) deliverOne(sim.Time) {
	m := q.pending[0]
	copy(q.pending, q.pending[1:])
	q.pending = q.pending[:len(q.pending)-1]
	q.buf = append(q.buf, m)
	q.mach.WakeOne(&q.readers)
}

// serialGate reserves the queue's serialized resource once per syscall
// instance. It returns a non-nil delay outcome when the caller must spin
// for its turn first.
func (q *Queue) serialGate(now sim.Time, reserved *bool) (kernel.Outcome, bool) {
	if q.Serial == nil || *reserved {
		return kernel.Outcome{}, false
	}
	*reserved = true
	if wait := q.Serial.Reserve(now, q.SerialHold); wait > 0 {
		return kernel.DelayFor(wait), true
	}
	return kernel.Outcome{}, false
}

// Send returns p's syscall action that enqueues m, blocking while the
// queue is full. cost is the simulated in-kernel work of the write path
// (socket buffer copy, protocol processing). Like every Proc.Call action,
// it must be returned from p's Step directly, not stashed across calls.
func (q *Queue) Send(p *kernel.Proc, cost uint64, m Msg) kernel.Action {
	return p.Call(kernel.Syscall{
		Cost: cost,
		Exec: execSend,
		Obj:  q,
		Args: [3]int64{int64(m.From), int64(m.Seq), m.Payload},
	})
}

// execSend is the static effect behind Send; Args carries the message
// fields.
func execSend(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	q := sc.Obj.(*Queue)
	if out, wait := q.serialGate(now, &sc.Reserved); wait {
		return out
	}
	if q.full() {
		return kernel.BlockOn(&q.writers)
	}
	q.sent++
	q.deposit(p, Msg{From: int(sc.Args[0]), Seq: int(sc.Args[1]), Payload: sc.Args[2]})
	return kernel.Done()
}

// Recv returns p's syscall action that dequeues the oldest message into
// out, blocking while the queue is empty.
func (q *Queue) Recv(p *kernel.Proc, cost uint64, out *Msg) kernel.Action {
	return p.Call(kernel.Syscall{Cost: cost, Exec: execRecv, Obj: q, Ptr: out})
}

// execRecv is the static effect behind Recv; Ptr is the destination.
func execRecv(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	q := sc.Obj.(*Queue)
	if o, wait := q.serialGate(now, &sc.Reserved); wait {
		return o
	}
	if len(q.buf) == 0 {
		return kernel.BlockOn(&q.readers)
	}
	*sc.Ptr.(*Msg) = q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf = q.buf[:len(q.buf)-1]
	q.delivered++
	if q.Cap > 0 {
		p.M.WakeOne(&q.writers)
	}
	return kernel.Done()
}

// TryRecv returns p's syscall action that polls the queue without blocking:
// *got reports whether a message was dequeued into out. Combined with
// Yield, this models the adaptive spin-then-block receive of a 1999-era
// JVM thread library, whose lonely yields are what drive the stock
// scheduler's recalculation storm (paper Figure 2).
func (q *Queue) TryRecv(p *kernel.Proc, cost uint64, out *Msg, got *bool) kernel.Action {
	return p.Call(kernel.Syscall{Cost: cost, Exec: execTryRecv, Obj: q, Ptr: out, Flag: got})
}

// execTryRecv is the static effect behind TryRecv; Ptr is the destination
// and Flag reports whether anything was dequeued.
func execTryRecv(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	q := sc.Obj.(*Queue)
	if o, wait := q.serialGate(now, &sc.Reserved); wait {
		return o
	}
	if len(q.buf) == 0 {
		*sc.Flag = false
		return kernel.Done()
	}
	*sc.Ptr.(*Msg) = q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf = q.buf[:len(q.buf)-1]
	q.delivered++
	*sc.Flag = true
	if q.Cap > 0 {
		p.M.WakeOne(&q.writers)
	}
	return kernel.Done()
}

// Inject deposits a message from outside any simulated task — e.g. an
// open-loop arrival process modeled as plain engine events — and wakes one
// reader. It bypasses capacity checks; callers enforce their own backlog
// policy.
func (q *Queue) Inject(m *kernel.Machine, msg Msg) {
	q.sent++
	q.buf = append(q.buf, msg)
	m.WakeOne(&q.readers)
}

// WakeAllReaders releases every reader blocked on the queue, for shutdown
// paths where no more messages will arrive.
func (q *Queue) WakeAllReaders(m *kernel.Machine) {
	m.WakeAll(&q.readers)
}

// SockPair is a bidirectional loopback connection: two bounded queues, one
// per direction, like the socket VolanoMark opens per simulated chat user.
type SockPair struct {
	// ClientToServer carries client writes; ServerToClient carries
	// server writes.
	ClientToServer *Queue
	ServerToClient *Queue
}

// NewSockPair builds a loopback connection with the given per-direction
// buffer capacity in messages.
func NewSockPair(capacity int) *SockPair {
	return &SockPair{
		ClientToServer: NewQueue(capacity),
		ServerToClient: NewQueue(capacity),
	}
}

// YieldMutex is a user-space lock that spins by calling sys_sched_yield
// before suspending, as IBM JDK 1.1.7's monitors did. Contention on such
// locks floods the scheduler with yielding tasks — the paper's §4 stress
// mechanism. Spinning must be bounded (TryLock callers yield a few times,
// then fall back to LockBlocking); an unbounded yield loop would starve a
// lock holder that a table scheduler has filed in a lower list.
type YieldMutex struct {
	owner   *kernel.Proc
	waiters kernel.WaitQueue
	spins   uint64
	acqs    uint64
	blocked uint64
	tryFee  uint64 // cost of a lock attempt; an unlock costs half
}

// NewYieldMutex returns an unlocked mutex. tryCost is the simulated cost
// of one lock attempt (a compare-and-swap plus bookkeeping).
func NewYieldMutex(tryCost uint64) *YieldMutex {
	if tryCost == 0 {
		tryCost = 120
	}
	return &YieldMutex{tryFee: tryCost}
}

// Locked reports whether the mutex is held.
func (mu *YieldMutex) Locked() bool { return mu.owner != nil }

// Spins returns how many failed attempts (each followed by a yield) have
// occurred.
func (mu *YieldMutex) Spins() uint64 { return mu.spins }

// Acquisitions returns the number of successful lock acquisitions.
func (mu *YieldMutex) Acquisitions() uint64 { return mu.acqs }

// TryLock attempts the lock once for p; *got reports success.
func (mu *YieldMutex) TryLock(p *kernel.Proc, got *bool) kernel.Action {
	return p.Call(kernel.Syscall{Cost: mu.tryFee, Exec: execTryLock, Obj: mu, Flag: got})
}

func execTryLock(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	mu := sc.Obj.(*YieldMutex)
	if mu.owner == nil {
		mu.owner = p
		mu.acqs++
		*sc.Flag = true
	} else {
		mu.spins++
		*sc.Flag = false
	}
	return kernel.Done()
}

// LockBlocking acquires the lock for p, suspending the caller until it is
// available — the JVM monitor's post-spin fallback. The kernel's syscall
// retry loop re-checks the condition after every wake.
func (mu *YieldMutex) LockBlocking(p *kernel.Proc) kernel.Action {
	return p.Call(kernel.Syscall{Cost: mu.tryFee, Exec: execLock, Obj: mu})
}

func execLock(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	mu := sc.Obj.(*YieldMutex)
	if mu.owner == nil {
		mu.owner = p
		mu.acqs++
		return kernel.Done()
	}
	mu.blocked++
	return kernel.BlockOn(&mu.waiters)
}

// BlockedAcquires returns how many acquisitions had to suspend.
func (mu *YieldMutex) BlockedAcquires() uint64 { return mu.blocked }

// Unlock releases p's hold on the lock and wakes one suspended waiter.
// It panics if p does not hold it, which in a deterministic simulation
// indicates a workload bug.
func (mu *YieldMutex) Unlock(p *kernel.Proc) kernel.Action {
	return p.Call(kernel.Syscall{Cost: mu.tryFee / 2, Exec: execUnlock, Obj: mu})
}

func execUnlock(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	mu := sc.Obj.(*YieldMutex)
	if mu.owner != p {
		panic("ipc: unlock of a mutex not held by caller")
	}
	mu.owner = nil
	p.M.WakeOne(&mu.waiters)
	return kernel.Done()
}
