package ipc

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/vanilla"
)

func newMachine(cpus int, useELSC bool) *kernel.Machine {
	factory := func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
	if useELSC {
		factory = func(env *sched.Env) sched.Scheduler { return elsc.New(env) }
	}
	return kernel.NewMachine(kernel.Config{
		CPUs:         cpus,
		SMP:          cpus > 1,
		Seed:         7,
		NewScheduler: factory,
		MaxCycles:    20 * kernel.DefaultHz,
	})
}

func TestQueueFIFOOrder(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("q", 0)
	const n = 20

	var got []Msg
	i := 0
	producer := m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if i >= n {
			return kernel.Exit{}
		}
		i++
		return q.Send(p, 500, Msg{From: 1, Seq: i})
	}))
	var cur Msg
	recvd := 0
	consumer := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if recvd > 0 {
			got = append(got, cur)
		}
		if recvd >= n {
			return kernel.Exit{}
		}
		recvd++
		return q.Recv(p, 500, &cur)
	}))
	m.Run(func() bool { return producer.Exited() && consumer.Exited() })

	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, msg := range got {
		if msg.Seq != i+1 {
			t.Fatalf("out of order: got seq %d at position %d", msg.Seq, i)
		}
	}
	if q.Sent() != n || q.Delivered() != n {
		t.Fatalf("sent/delivered = %d/%d, want %d/%d", q.Sent(), q.Delivered(), n, n)
	}
}

func TestBoundedQueueBlocksSender(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("q", 2)
	sent := 0
	slowRecvd := 0
	var cur Msg

	producer := m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if sent >= 6 {
			return kernel.Exit{}
		}
		sent++
		return q.Send(p, 500, Msg{Seq: sent})
	}))
	step := 0
	consumer := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		step++
		if step%2 == 1 {
			// Slow consumer: think between receives.
			return kernel.Sleep{Cycles: 100_000}
		}
		if slowRecvd >= 6 {
			return kernel.Exit{}
		}
		slowRecvd++
		return q.Recv(p, 500, &cur)
	}))
	m.Run(func() bool { return producer.Exited() && consumer.Exited() })
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	if sent != 6 || slowRecvd < 6 {
		t.Fatalf("sent=%d recvd=%d", sent, slowRecvd)
	}
}

func TestQueueCapacityNeverExceeded(t *testing.T) {
	m := newMachine(2, false)
	q := NewQueue("q", 3)
	maxSeen := 0
	sent := 0
	producer := m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if q.Len() > maxSeen {
			maxSeen = q.Len()
		}
		if sent >= 40 {
			return kernel.Exit{}
		}
		sent++
		return q.Send(p, 300, Msg{Seq: sent})
	}))
	var cur Msg
	recvd := 0
	consumer := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if q.Len() > maxSeen {
			maxSeen = q.Len()
		}
		if recvd >= 40 {
			return kernel.Exit{}
		}
		recvd++
		return q.Recv(p, 300, &cur)
	}))
	m.Run(func() bool { return producer.Exited() && consumer.Exited() })
	if maxSeen > 3 {
		t.Fatalf("queue length reached %d, capacity 3", maxSeen)
	}
}

func TestManyProducersOneConsumer(t *testing.T) {
	m := newMachine(2, true)
	q := NewQueue("q", 8)
	const producers = 5
	const per = 10
	for pid := 0; pid < producers; pid++ {
		pid := pid
		n := 0
		m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			if n >= per {
				return kernel.Exit{}
			}
			n++
			return q.Send(p, 400, Msg{From: pid, Seq: n})
		}))
	}
	var cur Msg
	perSender := make(map[int]int)
	recvd := 0
	consumer := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if recvd > 0 {
			// Per-sender FIFO: seq must increase by one.
			if cur.Seq != perSender[cur.From]+1 {
				t.Errorf("sender %d: got seq %d after %d", cur.From, cur.Seq, perSender[cur.From])
			}
			perSender[cur.From] = cur.Seq
		}
		if recvd >= producers*per {
			return kernel.Exit{}
		}
		recvd++
		return q.Recv(p, 400, &cur)
	}))
	m.Run(func() bool { return consumer.Exited() })
	if recvd != producers*per {
		t.Fatalf("received %d, want %d", recvd, producers*per)
	}
}

func TestSockPairDirections(t *testing.T) {
	m := newMachine(1, true)
	sp := NewSockPair("conn", 4)
	var fromClient, fromServer Msg
	step := 0
	client := m.Spawn("client", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		step++
		switch step {
		case 1:
			return sp.ClientToServer.Send(p, 500, Msg{Payload: 111})
		case 2:
			return sp.ServerToClient.Recv(p, 500, &fromServer)
		}
		return nil
	}))
	sstep := 0
	server := m.Spawn("server", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		sstep++
		switch sstep {
		case 1:
			return sp.ClientToServer.Recv(p, 500, &fromClient)
		case 2:
			return sp.ServerToClient.Send(p, 500, Msg{Payload: fromClient.Payload * 2})
		}
		return nil
	}))
	m.Run(func() bool { return client.Exited() && server.Exited() })
	if fromClient.Payload != 111 {
		t.Fatalf("server got %d, want 111", fromClient.Payload)
	}
	if fromServer.Payload != 222 {
		t.Fatalf("client got %d, want 222", fromServer.Payload)
	}
}

func TestYieldMutexMutualExclusion(t *testing.T) {
	m := newMachine(2, false)
	mu := NewYieldMutex("lock", 0)
	inside := 0
	maxInside := 0
	const workers = 4
	const rounds = 10
	for w := 0; w < workers; w++ {
		var got bool
		n := 0
		state := 0
		m.Spawn("locker", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			for {
				switch state {
				case 0: // try lock
					if n >= rounds {
						return kernel.Exit{}
					}
					state = 1
					got = false
					return mu.TryLock(p, &got)
				case 1:
					if !got {
						state = 0
						return kernel.Yield{}
					}
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					state = 2
					return kernel.Compute{Cycles: 2000}
				case 2:
					inside--
					n++
					state = 0
					return mu.Unlock(p)
				}
			}
		}))
	}
	m.Run(func() bool { return m.Alive() == 0 })
	if maxInside != 1 {
		t.Fatalf("mutual exclusion violated: %d tasks inside", maxInside)
	}
	if mu.Acquisitions() != workers*rounds {
		t.Fatalf("acquisitions = %d, want %d", mu.Acquisitions(), workers*rounds)
	}
}

func TestYieldMutexContentionYields(t *testing.T) {
	// Contended yield-locks must generate sys_sched_yield traffic — the
	// paper's stress mechanism.
	m := newMachine(1, false)
	mu := NewYieldMutex("lock", 0)
	for w := 0; w < 3; w++ {
		var got bool
		n := 0
		state := 0
		m.Spawn("locker", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			for {
				switch state {
				case 0:
					if n >= 20 {
						return kernel.Exit{}
					}
					state = 1
					got = false
					return mu.TryLock(p, &got)
				case 1:
					if !got {
						state = 0
						return kernel.Yield{}
					}
					state = 2
					// Hold across a block: guarantees contention.
					return kernel.Sleep{Cycles: 5000}
				case 2:
					n++
					state = 0
					return mu.Unlock(p)
				}
			}
		}))
	}
	m.Run(func() bool { return m.Alive() == 0 })
	if mu.Spins() == 0 {
		t.Fatal("no lock contention spins")
	}
	if m.Stats().YieldCalls == 0 {
		t.Fatal("no yields recorded")
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	m := newMachine(1, true)
	mu := NewYieldMutex("lock", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-owner should panic")
		}
	}()
	p := m.Spawn("bad", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		return mu.Unlock(p)
	}))
	m.Run(func() bool { return p.Exited() })
}
