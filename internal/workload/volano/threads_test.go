package volano

import (
	"testing"
	"unsafe"

	"elsc/internal/ipc"
	"elsc/internal/kernel"
)

// actionKind classifies an action for state-machine tests.
func actionKind(a kernel.Action) string {
	switch a.(type) {
	case *kernel.Syscall:
		return "syscall"
	case kernel.Yield:
		return "yield"
	case kernel.Compute:
		return "compute"
	case kernel.Sleep:
		return "sleep"
	case kernel.Exit:
		return "exit"
	default:
		return "?"
	}
}

// testProc spawns an idle proc on m for stepping a state machine by hand:
// the machine never runs, so only the proc's syscall slot is used.
func testProc(m *kernel.Machine) *kernel.Proc {
	return m.Spawn("t", nil, kernel.ProgramFunc(func(*kernel.Proc) kernel.Action { return nil }))
}

// asSyscall unwraps a syscall action.
func asSyscall(t *testing.T, a kernel.Action) *kernel.Syscall {
	t.Helper()
	sc, ok := a.(*kernel.Syscall)
	if !ok {
		t.Fatalf("expected syscall, got %T", a)
	}
	return sc
}

// execSyscall runs a syscall action's effect directly; valid only for
// effects that do not touch the machine (polls of unbounded queues).
func execSyscall(t *testing.T, p *kernel.Proc, a kernel.Action) kernel.Outcome {
	t.Helper()
	sc := asSyscall(t, a)
	return sc.Exec(sc, p, 0)
}

func TestSpinRecvPollsYieldsThenBlocks(t *testing.T) {
	q := ipc.NewQueue(0)
	p := testProc(newMachine(1, false, true, 1))
	sr := spinRecv{q: q, cost: 100}

	// recvSpins = 2: poll 1 (miss) -> yield -> poll 2 (miss) -> yield -> blocking recv.
	wantNames := []string{"tryrecv", "yield", "tryrecv", "yield", "recv"}
	for i, want := range wantNames {
		act, done := sr.step(p)
		if done {
			t.Fatalf("step %d: done early", i)
		}
		switch want {
		case "yield":
			if actionKind(act) != "yield" {
				t.Fatalf("step %d: got %s, want yield", i, actionKind(act))
			}
		case "tryrecv":
			if sc := asSyscall(t, act); sc.Obj != q || sc.Flag != &sr.got {
				t.Fatalf("step %d: got %+v, want a poll of q", i, sc)
			}
			out := execSyscall(t, p, act)
			if out.Wait != nil || sr.got {
				t.Fatalf("step %d: poll of an empty queue must neither block nor hit", i)
			}
		case "recv":
			// A blocking receive reports no hit flag.
			if sc := asSyscall(t, act); sc.Obj != q || sc.Flag != nil {
				t.Fatalf("step %d: got %+v, want blocking recv on q", i, sc)
			}
			out := execSyscall(t, p, act)
			if out.Wait == nil {
				t.Fatalf("step %d: blocking recv on empty queue must block", i)
			}
		}
	}
}

func TestSpinRecvImmediateHit(t *testing.T) {
	m := newMachine(1, false, true, 1)
	p := testProc(m)
	q := ipc.NewQueue(0)
	q.Inject(m, ipc.Msg{From: 9, Seq: 1})
	sr := spinRecv{q: q, cost: 100}
	act, done := sr.step(p)
	if done {
		t.Fatal("done before poll executes")
	}
	out := execSyscall(t, p, act)
	if out.Wait != nil {
		t.Fatal("poll blocked")
	}
	if !sr.got {
		t.Fatal("poll of a primed queue reported no message")
	}
	act, done = sr.step(p)
	if !done {
		t.Fatalf("expected done after successful poll, got %v", act)
	}
	if sr.msg.From != 9 || sr.msg.Seq != 1 {
		t.Fatalf("wrong message: %+v", sr.msg)
	}
}

func TestSpinRecvResetReusable(t *testing.T) {
	q := ipc.NewQueue(0)
	m := newMachine(1, false, true, 1)
	p := testProc(m)
	sr := spinRecv{q: q, cost: 100}
	for round := 1; round <= 3; round++ {
		q.Inject(m, ipc.Msg{Seq: round})
		sr.reset()
		act, _ := sr.step(p)
		execSyscall(t, p, act)
		_, done := sr.step(p)
		if !done || sr.msg.Seq != round {
			t.Fatalf("round %d: msg %+v done=%v", round, sr.msg, done)
		}
	}
}

func TestRoomLockReleasedAfterRun(t *testing.T) {
	m := newMachine(2, true, true, 3)
	b := Build(m, tiny())
	b.Run()
	for _, rm := range b.rooms {
		if rm.lock.Locked() {
			t.Fatalf("room %d lock left held", rm.id)
		}
	}
}

func TestAllQueuesDrainedAfterRun(t *testing.T) {
	m := newMachine(1, false, false, 3)
	b := Build(m, tiny())
	b.Run()
	for _, rm := range b.rooms {
		for _, cn := range rm.conns {
			if cn.sock.ClientToServer.Len() != 0 || cn.sock.ServerToClient.Len() != 0 {
				t.Fatalf("user %d socket not drained", cn.user)
			}
			if cn.writerQ.Len() != 0 {
				t.Fatalf("user %d writer queue not drained", cn.user)
			}
		}
	}
}

func TestPerConnectionDeliveryCounts(t *testing.T) {
	m := newMachine(2, true, true, 5)
	cfg := Config{Rooms: 2, UsersPerRoom: 3, MessagesPerUser: 4}
	b := Build(m, cfg)
	b.Run()
	// Every connection receives users*messages deliveries: all broadcasts
	// in its room.
	want := uint64(cfg.UsersPerRoom * cfg.MessagesPerUser)
	for _, rm := range b.rooms {
		for _, cn := range rm.conns {
			if cn.received != want {
				t.Fatalf("user %d received %d, want %d", cn.user, cn.received, want)
			}
		}
	}
}

func TestHousekeepingSpinnersExitAfterRun(t *testing.T) {
	m := newMachine(1, false, true, 3)
	b := Build(m, tiny())
	b.Run()
	// Let the spinners observe the finished flag and exit.
	m.Run(func() bool { return m.Alive() == 0 })
	for _, p := range b.housekeeping {
		if !p.Exited() {
			t.Fatal("housekeeping spinner still alive after completion")
		}
	}
}

func TestSenderClosedLoop(t *testing.T) {
	// A sender may never have more than one message outstanding: sends
	// only happen after the previous message's echo. Verify via socket
	// queue depth: the client-to-server queue of any connection holds at
	// most 1 message from its own user at a time. Observed indirectly:
	// c2s length never exceeds 1 (only this user writes to it).
	m := newMachine(1, false, false, 7)
	b := Build(m, Config{Rooms: 1, UsersPerRoom: 3, MessagesPerUser: 5})
	maxDepth := 0
	// Sample queue depths between events via the run-loop predicate.
	stop := func() bool {
		for _, rm := range b.rooms {
			for _, cn := range rm.conns {
				if cn.sock.ClientToServer.Len() > maxDepth {
					maxDepth = cn.sock.ClientToServer.Len()
				}
			}
		}
		return b.Done()
	}
	m.Run(stop)
	if maxDepth > 1 {
		t.Fatalf("a closed-loop sender had %d messages queued", maxDepth)
	}
}

// TestIdleSpinnerStepsAllocFree: the JVM housekeeping spinner hands out
// pre-boxed constants and one re-armed *Sleep, so stepping it through
// whole sleep/poll/yield windows never touches the allocator (it was one
// boxed Sleep per window: 200-340 k mallocs per VolanoMark cell).
func TestIdleSpinnerStepsAllocFree(t *testing.T) {
	b := &Benchmark{m: newMachine(1, false, false, 42)}
	p := testProc(b.m)
	sp := newIdleSpinner(b)
	kinds := map[string]int{}
	if avg := testing.AllocsPerRun(1000, func() {
		switch a := sp.Step(p).(type) {
		case *kernel.Sleep:
			if a.Cycles < 800_000 || a.Cycles >= 2_400_000 {
				t.Fatalf("nap of %d cycles", a.Cycles)
			}
			kinds["sleep"]++
		default:
			kinds[actionKind(a)]++
		}
	}); avg != 0 {
		t.Fatalf("%.2f allocs per spinner step, want 0", avg)
	}
	// 1001 steps of the 13-step window: 1 nap, 6 polls, 6 yields each.
	if kinds["sleep"] != 77 || kinds["compute"] != 462 || kinds["yield"] != 462 {
		t.Fatalf("step mix %v", kinds)
	}
	b.finished = true
	if _, ok := sp.Step(p).(kernel.Exit); !ok {
		t.Fatal("a finished benchmark's spinner must exit")
	}
}

// TestSenderStepsAllocFree: a sender's think step hands out the one
// package-level boxed Compute, its send and echo-wait arm the proc's own
// syscall slot, so a whole think/send/wait round never touches the
// allocator (the think step was one boxed Compute per message: 37% of a
// paper-regime cell's allocations).
func TestSenderStepsAllocFree(t *testing.T) {
	cn := &conn{user: 3, sock: ipc.NewSockPair(0), echo: ipc.NewQueue(0)}
	s := &sender{cn: cn, messages: 1 << 30}
	p := testProc(newMachine(1, false, true, 1))
	kinds := map[string]int{}
	// One run is a whole round: AllocsPerRun's average is an integer
	// division, so a single allocation per three steps would read as zero.
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3; i++ {
			a := s.Step(p)
			if c, ok := a.(kernel.Compute); ok && c.Cycles != senderThink {
				t.Fatalf("think step of %d cycles, want %d", c.Cycles, senderThink)
			}
			kinds[actionKind(a)]++
		}
	}); avg != 0 {
		t.Fatalf("%.0f allocs per think/send/wait round, want 0", avg)
	}
	if kinds["compute"] != 101 || kinds["syscall"] != 202 {
		t.Fatalf("step mix %v, want one think step and two syscalls per round", kinds)
	}
}

// TestThreadProgramSizes: the receiver, reader and writer programs read
// the package's constants instead of each holding a Config copy, so a
// connection's three spin-receiving threads fit the 96- and 128-byte size
// classes (280, 312 and 280 bytes when each carried its Config).
func TestThreadProgramSizes(t *testing.T) {
	for name, size := range map[string]uintptr{
		"receiver": unsafe.Sizeof(receiver{}),
		"reader":   unsafe.Sizeof(reader{}),
		"writer":   unsafe.Sizeof(writer{}),
	} {
		if size > 128 {
			t.Errorf("%s is %d bytes, want at most 128", name, size)
		}
	}
}
