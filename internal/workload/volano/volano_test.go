package volano

import (
	"testing"

	"elsc/internal/ipc"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/vanilla"
)

func newMachine(cpus int, smp bool, useELSC bool, seed int64) *kernel.Machine {
	factory := func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
	if useELSC {
		factory = func(env *sched.Env) sched.Scheduler { return elsc.New(env) }
	}
	return kernel.NewMachine(kernel.Config{
		CPUs:         cpus,
		SMP:          smp,
		Seed:         seed,
		NewScheduler: factory,
		MaxCycles:    600 * kernel.DefaultHz,
	})
}

// tiny is a fast test configuration.
func tiny() Config {
	return Config{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 3}
}

func TestThreadCountMatchesPaper(t *testing.T) {
	// "Each simulated user creates two threads, so each room creates a
	// total of 80 threads" (with the two server-side threads per
	// connection).
	m := newMachine(1, false, true, 1)
	b := Build(m, Config{Rooms: 2, UsersPerRoom: 20, MessagesPerUser: 1})
	if b.Threads() != 2*20*4 {
		t.Fatalf("threads = %d, want 160", b.Threads())
	}
}

func TestExpectedDeliveries(t *testing.T) {
	m := newMachine(1, false, true, 1)
	b := Build(m, Config{Rooms: 2, UsersPerRoom: 5, MessagesPerUser: 7})
	// rooms * users^2 * messages: every message reaches every member.
	if b.ExpectedDeliveries() != 2*5*5*7 {
		t.Fatalf("expected deliveries = %d, want %d", b.ExpectedDeliveries(), 2*5*5*7)
	}
}

func TestRunCompletesAndConserves(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		name := map[bool]string{false: "vanilla", true: "elsc"}[useELSC]
		t.Run(name, func(t *testing.T) {
			m := newMachine(1, false, useELSC, 42)
			b := Build(m, tiny())
			res := b.Run()
			if !b.Done() {
				t.Fatal("benchmark did not complete")
			}
			if res.Deliveries != b.ExpectedDeliveries() {
				t.Fatalf("deliveries = %d, want %d (message conservation)",
					res.Deliveries, b.ExpectedDeliveries())
			}
			if res.Throughput <= 0 {
				t.Fatal("throughput must be positive")
			}
		})
	}
}

func TestRunCompletesOnSMP(t *testing.T) {
	for _, cpus := range []int{2, 4} {
		for _, useELSC := range []bool{false, true} {
			m := newMachine(cpus, true, useELSC, 42)
			b := Build(m, tiny())
			res := b.Run()
			if res.Deliveries != b.ExpectedDeliveries() {
				t.Fatalf("cpus=%d elsc=%v: deliveries %d != %d",
					cpus, useELSC, res.Deliveries, b.ExpectedDeliveries())
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		m := newMachine(2, true, true, 11)
		b := Build(m, tiny())
		res := b.Run()
		return res.Cycles, m.Stats().SchedCalls
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, s1, c2, s2)
	}
}

func TestLockContentionHappens(t *testing.T) {
	// On SMP, concurrently running readers collide on the room lock. On
	// UP the lock section is effectively atomic (the holder is rarely
	// preempted), so the yield traffic comes from spin-receives instead.
	m := newMachine(2, true, false, 42)
	b := Build(m, Config{Rooms: 1, UsersPerRoom: 8, MessagesPerUser: 5})
	b.Run()
	if b.LockSpins() == 0 {
		t.Fatal("room lock never contended; the yield-storm mechanism is dead")
	}
	if m.Stats().YieldCalls == 0 {
		t.Fatal("no sched_yield calls")
	}
}

func TestSchedulerComparisonShape(t *testing.T) {
	cfg := Config{Rooms: 2, UsersPerRoom: 8, MessagesPerUser: 8}

	mv := newMachine(1, false, false, 42)
	rv := Build(mv, cfg).Run()
	sv := mv.Stats()

	me := newMachine(1, false, true, 42)
	re := Build(me, cfg).Run()
	se := me.Stats()

	if rv.Deliveries != re.Deliveries {
		t.Fatalf("deliveries differ: %d vs %d", rv.Deliveries, re.Deliveries)
	}
	// Figure 2: ELSC recalculates far less.
	if se.Recalcs*10 > sv.Recalcs && sv.Recalcs > 100 {
		t.Fatalf("recalcs: vanilla %d vs elsc %d — ELSC should be far lower",
			sv.Recalcs, se.Recalcs)
	}
	// Figure 5: ELSC examines fewer tasks per call.
	if se.ExaminedPerSchedule() >= sv.ExaminedPerSchedule() {
		t.Fatalf("examined/call: vanilla %.1f vs elsc %.1f",
			sv.ExaminedPerSchedule(), se.ExaminedPerSchedule())
	}
}

func TestMoreRoomsMoreThreads(t *testing.T) {
	m := newMachine(1, false, true, 1)
	b5 := Build(m, Config{Rooms: 5, UsersPerRoom: 20, MessagesPerUser: 1})
	if b5.Threads() != 400 {
		t.Fatalf("5 rooms = %d threads, want 400 (paper: '400 to 2,000 threads')", b5.Threads())
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := (&Config{}).withDefaults()
	if cfg.UsersPerRoom != 20 {
		t.Fatalf("default users = %d, want 20", cfg.UsersPerRoom)
	}
	if cfg.MessagesPerUser != 100 {
		t.Fatalf("default messages = %d, want 100", cfg.MessagesPerUser)
	}
}

func TestResultFields(t *testing.T) {
	m := newMachine(1, false, true, 5)
	b := Build(m, tiny())
	res := b.Run()
	if res.Rooms != 1 || res.Users != 4 || res.Messages != 3 {
		t.Fatalf("result config echo wrong: %+v", res)
	}
	if res.Threads != 16 {
		t.Fatalf("threads = %d, want 16", res.Threads)
	}
	if res.Seconds <= 0 {
		t.Fatal("elapsed seconds must be positive")
	}
}

// TestScalableStackHolds: ScalableStack swaps the network stack's
// serialized holds, socket and in-process queues alike, and leaves the
// loopback delivery latency alone.
func TestScalableStackHolds(t *testing.T) {
	for _, tc := range []struct {
		scalable        bool
		sockHold, qHold uint64
	}{
		{false, 11000, 2000},
		{true, 1200, 300},
	} {
		cfg := tiny()
		cfg.ScalableStack = tc.scalable
		b := Build(newMachine(1, false, true, 1), cfg)
		for _, cn := range b.rooms[0].conns {
			for _, q := range []*ipc.Queue{cn.sock.ClientToServer, cn.sock.ServerToClient} {
				if q.SerialHold != tc.sockHold || q.DeliverLatency != 20000 {
					t.Fatalf("ScalableStack=%v: socket queue holds %d for %d latency, want %d for 20000",
						tc.scalable, q.SerialHold, q.DeliverLatency, tc.sockHold)
				}
			}
			for _, q := range []*ipc.Queue{cn.writerQ, cn.echo} {
				if q.SerialHold != tc.qHold {
					t.Fatalf("ScalableStack=%v: in-process queue holds %d, want %d",
						tc.scalable, q.SerialHold, tc.qHold)
				}
			}
		}
	}
}
