// Package volano reimplements the VolanoMark chat benchmark as a simulated
// workload (paper §4 and §6). VolanoMark measures a Java chat server: each
// simulated user opens a loopback socket connection; because 1999-era Java
// has no non-blocking I/O, every connection carries four threads — a
// client-side sender and receiver, and a server-side reader and writer.
// Every message a user sends is broadcast by the server to all members of
// the user's room.
//
// The workload stresses the scheduler in the three ways the paper
// describes:
//
//   - Thread count: rooms × 20 users × 4 threads (a 20-room run is 1,600
//     tasks, "400 to 2,000 threads in the run queue").
//   - Rapid blocking message ping-pong over the loopback sockets: "each
//     must have time on the CPU to send and receive its messages ... this
//     type of message exchanging application forces many entries into the
//     scheduler."
//   - sched_yield storms from user-level JVM synchronization: the room
//     broadcast lock is a yield-spinning mutex, and receives poll with a
//     spin-then-block loop, as IBM JDK 1.1.7's thread library did.
//
// The benchmark metric is message throughput: deliveries to client
// receivers per second of virtual time.
package volano

import (
	"fmt"

	"elsc/internal/ipc"
	"elsc/internal/kernel"
	"elsc/internal/task"
)

// Config sizes a VolanoMark run. Zero fields take the paper's defaults.
type Config struct {
	// Rooms is the number of chat rooms (paper sweeps 5, 10, 15, 20).
	Rooms int
	// UsersPerRoom is the room population (paper: 20).
	UsersPerRoom int
	// MessagesPerUser is how many messages each user sends (paper: 100).
	MessagesPerUser int
	// ScalableStack shrinks the network stack's serialized section to a
	// per-socket lock hold, modeling the fine-grained locking the kernel
	// grew by 2.6. The 2.3-era stack caps machine-wide throughput at one
	// socket operation per 11k cycles no matter the CPU count, which
	// makes every 16/32-processor run stack-bound and
	// scheduler-indifferent; the scaled machines need the stack that era
	// actually shipped with.
	ScalableStack bool
}

// The calibrated shape and cycle prices of the message path, for a 400
// MHz machine, so that a delivery costs tens of microseconds of CPU like a
// real 1999 Java chat message through the TCP loopback stack.
const (
	// sockCap is the per-direction socket buffer capacity in messages.
	sockCap = 16
	// writerQCap bounds each connection's in-process broadcast queue.
	// The small value models the real server's flow control: a room's
	// reader stalls when a member's writer backs up, which keeps the
	// number of simultaneously runnable threads proportional to rooms
	// rather than rooms × users².
	writerQCap = 3
	// recvSpins is how many poll-then-yield rounds a receive (and a room
	// lock attempt) performs before blocking: the JVM's adaptive spin.
	recvSpins = 2
	// idleSpinnersPerJVM is the number of housekeeping threads (garbage
	// collector, finalizer) each JVM runs. They wake periodically, poll
	// for work with a few sched_yield rounds, and go back to sleep, as
	// IBM JDK 1.1.7's runtime did. Whenever one of them yields as the
	// only runnable task, the stock scheduler runs the recalculation
	// loop — the dominant source of the paper's Figure 2 counts.
	idleSpinnersPerJVM = 2
	// rampCycles staggers thread start-up over a uniform window (25 ms),
	// modeling VolanoMark's sequential connection establishment. Without
	// it every task starts with an identical quantum and wake-up
	// preemption never fires (all goodness comparisons tie), which is
	// not a regime the real benchmark ever sees.
	rampCycles = 10_000_000

	senderThink  = 4000  // client-side message composition
	senderSend   = 16000 // client socket write (TCP send path + JVM)
	readerParse  = 12000 // server read + protocol parse
	routePerUser = 1500  // enqueue to one member's writer queue
	writerWrite  = 16000 // server socket write per delivery
	receiverRecv = 12000 // client socket read + handling per delivery
	lockTry      = 150   // one user-level lock attempt
	queueOp      = 1200  // in-process queue syscall cost
	echoSignalOp = 600   // sender-pacing gate operations
	spinPollCost = 400   // one non-blocking poll
	// netLatency delays loopback delivery: data written to a socket
	// becomes readable after the net bottom-half runs, not instantly.
	netLatency = 20000

	// netSerialHold is the serialized (big-kernel-lock era) portion of
	// each loopback socket operation: no matter how many CPUs the
	// machine has, socket work passes through the 2.3.x network stack
	// essentially one operation at a time. This is why the paper's 4P
	// throughput barely exceeds UP throughput.
	netSerialHold = 11000
	// queueSerialHold is the smaller serialized portion of in-process
	// queue and gate operations (futex-style kernel entry).
	queueSerialHold = 2000
	// The ScalableStack holds: a per-socket lock instead of the big one.
	scalableNetSerialHold   = 1200
	scalableQueueSerialHold = 300
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Rooms == 0 {
		out.Rooms = 10
	}
	if out.UsersPerRoom == 0 {
		out.UsersPerRoom = 20
	}
	if out.MessagesPerUser == 0 {
		out.MessagesPerUser = 100
	}
	return out
}

// Benchmark is a constructed VolanoMark instance bound to a machine.
type Benchmark struct {
	m       *kernel.Machine
	rooms   []*room
	threads []*kernel.Proc
	exited  kernel.ExitCursor // over threads, for Done
	// housekeeping holds the JVM idle-spinner threads; they run until
	// Done and are excluded from completion checks.
	housekeeping []*kernel.Proc

	expectedDeliveries uint64
}

// room holds one chat room's server-side state.
type room struct {
	id    int
	lock  *ipc.YieldMutex
	conns []*conn
}

// conn is one user's connection: the socket pair, the in-process queue
// feeding the user's server-side writer, and the client-side echo gate
// that paces the sender.
type conn struct {
	user    int
	sock    *ipc.SockPair
	writerQ *ipc.Queue
	echo    *ipc.Queue
	// received counts deliveries to this user's client receiver.
	received uint64
}

// Build constructs all rooms, connections and threads on m. Client threads
// share one address space (the client JVM) and server threads another (the
// server JVM), as in the paper's loopback runs.
func Build(m *kernel.Machine, cfg Config) *Benchmark {
	cfg = cfg.withDefaults()
	b := &Benchmark{m: m}
	clientMM := m.NewMM("client-jvm")
	serverMM := m.NewMM("server-jvm")
	netStack := m.NewSerialResource()

	netHold, queueHold := uint64(netSerialHold), uint64(queueSerialHold)
	if cfg.ScalableStack {
		netHold, queueHold = scalableNetSerialHold, scalableQueueSerialHold
	}
	u := cfg.UsersPerRoom
	msgs := cfg.MessagesPerUser
	b.expectedDeliveries = uint64(cfg.Rooms) * uint64(u) * uint64(u) * uint64(msgs)

	for r := 0; r < cfg.Rooms; r++ {
		rm := &room{
			id:   r,
			lock: ipc.NewYieldMutex(lockTry),
		}
		for i := 0; i < u; i++ {
			uid := r*u + i
			cn := &conn{
				user:    uid,
				sock:    ipc.NewSockPair(sockCap),
				writerQ: ipc.NewQueue(writerQCap),
				echo:    ipc.NewQueue(0),
			}
			for _, q := range []*ipc.Queue{cn.sock.ClientToServer, cn.sock.ServerToClient} {
				q.Serial = netStack
				q.SerialHold = netHold
				q.DeliverLatency = netLatency
			}
			for _, q := range []*ipc.Queue{cn.writerQ, cn.echo} {
				q.Serial = netStack
				q.SerialHold = queueHold
			}
			rm.conns = append(rm.conns, cn)
		}
		b.rooms = append(b.rooms, rm)

		for i, cn := range rm.conns {
			name := fmt.Sprintf("r%d.u%d", r, i)
			b.spawn(name+".sender", clientMM, &sender{cn: cn, messages: msgs})
			b.spawn(name+".recv", clientMM, newReceiver(cn, u*msgs))
			b.spawn(name+".reader", serverMM, newReader(rm, cn, msgs))
			b.spawn(name+".writer", serverMM, newWriter(cn, u*msgs))
		}
	}
	// The JVM runtime threads: GC and finalizer pollers in each JVM.
	for i := 0; i < idleSpinnersPerJVM; i++ {
		for _, jvm := range []*task.MM{clientMM, serverMM} {
			p := m.Spawn(fmt.Sprintf("%s.gc%d", jvm.Name, i), jvm, newIdleSpinner(b))
			b.housekeeping = append(b.housekeeping, p)
		}
	}
	return b
}

// newIdleSpinner builds a JVM housekeeping thread: sleep a few
// milliseconds, wake, poll for work with a handful of sched_yield rounds,
// and sleep again — until the benchmark finishes. When a poll window
// coincides with a lull in chat traffic, the spinner's yields arrive as
// the only runnable task: the stock scheduler recalculates every counter
// in the system on each one (Figure 2), while ELSC just re-runs it.
func newIdleSpinner(b *Benchmark) kernel.Program {
	const pollRounds = 6
	phase := 0
	round := 0
	rng := b.m.RNG().Fork()
	// The nap is the one action whose operand varies per step: re-arm a
	// spinner-owned Sleep and hand out its pointer (the kernel copies the
	// duration out at once), so no step boxes a fresh value.
	nap := new(kernel.Sleep)
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if b.Done() {
			return spinnerExit
		}
		switch phase {
		case 0: // sleep between poll windows (2-6 ms)
			phase = 1
			round = 0
			nap.Cycles = rng.Range(800_000, 2_400_000)
			return nap
		case 1: // poll for work
			phase = 2
			return spinnerPoll
		default: // nothing found: yield, maybe poll again
			round++
			if round >= pollRounds {
				phase = 0
			} else {
				phase = 1
			}
			return spinnerYield
		}
	})
}

// The spinner's fixed actions, boxed once.
var (
	spinnerPoll  kernel.Action = kernel.Compute{Cycles: 1500}
	spinnerYield kernel.Action = kernel.Yield{}
	spinnerExit  kernel.Action = kernel.Exit{}
)

func (b *Benchmark) spawn(name string, mm *task.MM, prog kernel.Program) {
	prog = &staggered{delay: b.m.RNG().Uint64n(rampCycles), inner: prog}
	b.threads = append(b.threads, b.m.Spawn(name, mm, prog))
}

// staggered delays a program's first action, modeling the benchmark's
// connection ramp-up.
type staggered struct {
	delay   uint64
	inner   kernel.Program
	started bool
}

func (s *staggered) Step(p *kernel.Proc) kernel.Action {
	if !s.started {
		s.started = true
		return kernel.Sleep{Cycles: s.delay}
	}
	return s.inner.Step(p)
}

// Threads returns the number of simulated threads the benchmark created.
func (b *Benchmark) Threads() int { return len(b.threads) }

// ExpectedDeliveries returns rooms*users^2*messages: every message is
// broadcast to every room member.
func (b *Benchmark) ExpectedDeliveries() uint64 { return b.expectedDeliveries }

// Deliveries returns client-side deliveries so far.
func (b *Benchmark) Deliveries() uint64 {
	var n uint64
	for _, rm := range b.rooms {
		for _, cn := range rm.conns {
			n += cn.received
		}
	}
	return n
}

// Done reports whether every thread has exited.
func (b *Benchmark) Done() bool { return b.exited.AllExited(b.threads) }

// LockSpins totals yield-lock contention spins across rooms.
func (b *Benchmark) LockSpins() uint64 {
	var n uint64
	for _, rm := range b.rooms {
		n += rm.lock.Spins()
	}
	return n
}
