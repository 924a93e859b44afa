package volano

import (
	"elsc/internal/ipc"
	"elsc/internal/kernel"
)

// The four per-connection threads, written as explicit state machines over
// kernel.Program. Receives use a spin-then-block loop (poll, yield, poll,
// yield, block) modeling the adaptive spinning of IBM JDK 1.1.7's thread
// library; when such a poller is the only runnable task, its yields force
// the stock scheduler through the recalculation loop — Figure 2's
// mechanism.

// spinRecv is a reusable receive-with-spin sub-machine.
type spinRecv struct {
	q     *ipc.Queue
	spins int
	cost  uint64 // blocking receive cost
	poll  uint64 // poll attempt cost

	phase int // 0 try, 1 check/yield, 2 blocking, 3 done
	tries int
	got   bool
	msg   ipc.Msg
}

func (s *spinRecv) reset() {
	s.phase = 0
	s.tries = 0
	s.got = false
}

// step advances the receive; it returns (action, false) while in progress
// and (nil, true) when a message is in s.msg.
func (s *spinRecv) step(p *kernel.Proc) (kernel.Action, bool) {
	for {
		switch s.phase {
		case 0: // non-blocking poll
			if s.tries >= s.spins {
				s.phase = 2
				return s.q.Recv(p, s.cost, &s.msg), false
			}
			s.tries++
			s.phase = 1
			return s.q.TryRecv(p, s.poll, &s.msg, &s.got), false
		case 1: // poll result: deliver, or yield and retry
			if s.got {
				s.phase = 3
				continue
			}
			s.phase = 0
			return kernel.Yield{}, false
		case 2: // blocking receive completed
			s.phase = 3
			continue
		default: // done
			return nil, true
		}
	}
}

// sender is the client-side writer thread: compose, send, then wait for
// the message's own broadcast echo before composing the next — VolanoMark
// clients are closed-loop.
type sender struct {
	cn       *conn
	messages int           // Config.MessagesPerUser
	think    kernel.Action // the fixed compose step, boxed once
	sendCost uint64
	echoCost uint64
	sent     int
	phase    int
	gate     ipc.Msg
}

// newSender copies out of cfg the four values a sender uses: it then holds
// no Config of its own, which more than pays for the boxed think step.
func newSender(cfg Config, cn *conn) kernel.Program {
	return &sender{
		cn:       cn,
		messages: cfg.MessagesPerUser,
		think:    kernel.Compute{Cycles: cfg.Costs.SenderThink},
		sendCost: cfg.Costs.SenderSend,
		echoCost: cfg.Costs.EchoSignalOp,
	}
}

func (s *sender) Step(p *kernel.Proc) kernel.Action {
	switch s.phase {
	case 0: // think
		if s.sent >= s.messages {
			return kernel.Exit{}
		}
		s.phase = 1
		return s.think
	case 1: // write to the socket
		s.phase = 2
		s.sent++
		return s.cn.sock.ClientToServer.Send(p, s.sendCost, ipc.Msg{
			From: s.cn.user,
			Seq:  s.sent,
		})
	default: // wait for own echo
		s.phase = 0
		return s.cn.echo.Recv(p, s.echoCost, &s.gate)
	}
}

// receiver is the client-side reader thread: it consumes every broadcast
// delivery for this connection and releases the sender's gate when it sees
// the connection's own message come back.
type receiver struct {
	cfg   Config
	cn    *conn
	total int
	done  int
	rx    spinRecv
	phase int
}

func newReceiver(cfg Config, cn *conn, total int) kernel.Program {
	r := &receiver{cfg: cfg, cn: cn, total: total}
	r.rx = spinRecv{
		q:     cn.sock.ServerToClient,
		spins: cfg.RecvSpins,
		cost:  cfg.Costs.ReceiverRecv,
		poll:  cfg.Costs.SpinPollCost,
	}
	r.rx.reset()
	return r
}

func (r *receiver) Step(p *kernel.Proc) kernel.Action {
	for {
		switch r.phase {
		case 0: // receiving
			if r.done >= r.total {
				return kernel.Exit{}
			}
			act, ok := r.rx.step(p)
			if !ok {
				return act
			}
			r.done++
			r.cn.received++
			if r.rx.msg.From == r.cn.user {
				// Our own message came back: unblock the sender.
				r.phase = 1
				continue
			}
			r.rx.reset()
		case 1: // signal the sender's gate
			r.phase = 0
			r.rx.reset()
			return r.cn.echo.Send(p, r.cfg.Costs.EchoSignalOp, ipc.Msg{})
		}
	}
}

// reader is the server-side thread that reads one connection's messages
// and broadcasts each to every member of the room, holding the room's
// user-level yield-lock while routing, as VolanoChat synchronizes its
// room member list.
type reader struct {
	cfg     Config
	rm      *room
	cn      *conn
	msgs    int
	handled int

	rx        spinRecv
	phase     int
	routeTo   int
	got       bool
	lockTries int
}

func newReader(cfg Config, rm *room, cn *conn, msgs int) kernel.Program {
	r := &reader{cfg: cfg, rm: rm, cn: cn, msgs: msgs}
	r.rx = spinRecv{
		q:     cn.sock.ClientToServer,
		spins: cfg.RecvSpins,
		cost:  cfg.Costs.ReaderParse,
		poll:  cfg.Costs.SpinPollCost,
	}
	r.rx.reset()
	return r
}

func (r *reader) Step(p *kernel.Proc) kernel.Action {
	c := r.cfg.Costs
	for {
		switch r.phase {
		case 0: // read next inbound message
			if r.handled >= r.msgs {
				return kernel.Exit{}
			}
			act, ok := r.rx.step(p)
			if !ok {
				return act
			}
			r.phase = 1
			r.lockTries = 0
		case 1: // acquire the room lock, JVM-style: spin, then suspend
			if r.lockTries >= r.cfg.RecvSpins {
				r.phase = 5
				return r.rm.lock.LockBlocking(p)
			}
			r.lockTries++
			r.phase = 2
			r.got = false
			return r.rm.lock.TryLock(p, &r.got)
		case 2:
			if !r.got {
				r.phase = 1
				return kernel.Yield{}
			}
			r.routeTo = 0
			r.phase = 3
		case 5: // LockBlocking acquired the lock
			r.routeTo = 0
			r.phase = 3
		case 3: // route to each member's writer queue
			if r.routeTo >= len(r.rm.conns) {
				r.phase = 4
				continue
			}
			dst := r.rm.conns[r.routeTo]
			r.routeTo++
			return dst.writerQ.Send(p, c.RoutePerUser+c.QueueOp, r.rx.msg)
		case 4: // release the lock, account the message
			r.handled++
			r.phase = 0
			r.rx.reset()
			return r.rm.lock.Unlock(p)
		}
	}
}

// writer is the server-side thread that drains its connection's broadcast
// queue onto the socket back to the client.
type writer struct {
	cfg   Config
	cn    *conn
	total int
	done  int
	rx    spinRecv
	phase int
}

func newWriter(cfg Config, cn *conn, total int) kernel.Program {
	w := &writer{cfg: cfg, cn: cn, total: total}
	w.rx = spinRecv{
		q:     cn.writerQ,
		spins: cfg.RecvSpins,
		cost:  cfg.Costs.QueueOp,
		poll:  cfg.Costs.SpinPollCost,
	}
	w.rx.reset()
	return w
}

func (w *writer) Step(p *kernel.Proc) kernel.Action {
	for {
		switch w.phase {
		case 0: // dequeue the next broadcast
			if w.done >= w.total {
				return kernel.Exit{}
			}
			act, ok := w.rx.step(p)
			if !ok {
				return act
			}
			w.phase = 1
		case 1: // write to the client socket
			w.done++
			w.phase = 0
			msg := w.rx.msg
			w.rx.reset()
			return w.cn.sock.ServerToClient.Send(p, w.cfg.Costs.WriterWrite, msg)
		}
	}
}
