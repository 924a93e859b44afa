package ipc

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sim"
)

func TestDeliverLatencyDelaysVisibility(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("lat", 0)
	q.DeliverLatency = 100_000

	var sentAt, gotAt sim.Time
	var msg Msg
	step := 0
	p := m.Spawn("p", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		step++
		switch step {
		case 1:
			a := q.Send(p, 100, Msg{Seq: 1})
			return a
		case 2:
			sentAt = p.M.Now()
			return q.Recv(p, 100, &msg)
		case 3:
			gotAt = p.M.Now()
			return kernel.Exit{}
		}
		return nil
	}))
	m.Run(func() bool { return p.Exited() })
	if msg.Seq != 1 {
		t.Fatal("message lost")
	}
	if gotAt-sentAt < 90_000 {
		t.Fatalf("delivery took %d cycles, want >= ~100000", gotAt-sentAt)
	}
}

func TestDeliverLatencyCountsAgainstCapacity(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("lat", 2)
	q.DeliverLatency = 1_000_000 // long flight

	sent := 0
	blockedAtThird := false
	p := m.Spawn("p", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if sent >= 3 {
			return kernel.Exit{}
		}
		sent++
		a := q.Send(p, 100, Msg{Seq: sent})
		return a
	}))
	// A late consumer drains the queue; until then the third send must
	// block because two messages are still in flight.
	var cur Msg
	recvd := 0
	started := false
	c := m.Spawn("c", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if !started {
			started = true
			return kernel.Sleep{Cycles: 2_000_000}
		}
		if recvd >= 3 {
			return kernel.Exit{}
		}
		recvd++
		return q.Recv(p, 100, &cur)
	}))
	m.Engine().After(500_000, "check", func(sim.Time) {
		blockedAtThird = p.Blocked() && sent == 3
	})
	m.Run(func() bool { return p.Exited() && c.Exited() })
	if !blockedAtThird {
		t.Fatal("third send should have blocked on in-flight capacity")
	}
	if !p.Exited() {
		t.Fatal("sender should complete once the consumer drains")
	}
}

func TestDeliverLatencyPreservesFIFO(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("lat", 0)
	q.DeliverLatency = 50_000

	sent := 0
	producer := m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if sent >= 10 {
			return kernel.Exit{}
		}
		sent++
		return q.Send(p, 100, Msg{Seq: sent})
	}))
	var got []int
	var cur Msg
	recvd := 0
	consumer := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if recvd > 0 {
			got = append(got, cur.Seq)
		}
		if recvd >= 10 {
			return kernel.Exit{}
		}
		recvd++
		return q.Recv(p, 100, &cur)
	}))
	m.Run(func() bool { return producer.Exited() && consumer.Exited() })
	for i, seq := range got {
		if seq != i+1 {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestSerialGateDelaysContendedOps(t *testing.T) {
	m := newMachine(2, true)
	serial := m.NewSerialResource("bkl")
	q1 := NewQueue("a", 0)
	q2 := NewQueue("b", 0)
	for _, q := range []*Queue{q1, q2} {
		q.Serial = serial
		q.SerialHold = 50_000
	}
	// Two tasks on two CPUs hammer different queues through the same
	// serialized resource: contention must appear.
	mk := func(q *Queue) kernel.Program {
		n := 0
		return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			if n >= 20 {
				return kernel.Exit{}
			}
			n++
			return q.Send(p, 100, Msg{Seq: n})
		})
	}
	m.Spawn("s1", nil, mk(q1))
	m.Spawn("s2", nil, mk(q2))
	m.Run(func() bool { return m.Alive() == 0 })
	if serial.Contended() == 0 {
		t.Fatal("no contention on the serialized resource")
	}
	if serial.SpinCycles() == 0 {
		t.Fatal("no spin cycles recorded")
	}
}

func TestInjectDeliversWithoutTask(t *testing.T) {
	m := newMachine(1, true)
	q := NewQueue("inj", 8)
	var got Msg
	recvd := false
	p := m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if recvd {
			return kernel.Exit{}
		}
		recvd = true
		return q.Recv(p, 100, &got)
	}))
	m.Engine().After(50_000, "inject", func(sim.Time) {
		q.Inject(m, Msg{Payload: 77})
	})
	m.Run(func() bool { return p.Exited() })
	if got.Payload != 77 {
		t.Fatalf("payload = %d, want 77", got.Payload)
	}
}
