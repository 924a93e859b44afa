package ipc

import (
	"testing"
	"unsafe"

	"elsc/internal/kernel"
	"elsc/internal/sim"
)

// TestSteadyStateQueueOpsAllocFree asserts the Proc.Call contract: every
// op arms a static effect in the caller's own syscall slot, so once the
// machine, queues, and buffers are warm, a steady-state IPC
// workload — blocking sends and receives (one direction with delivery
// latency), TryRecv polling with yields, and a yield-mutex cycle — runs
// entire tick periods without touching the allocator. This is the ~90% of
// remaining steady-state allocations the PR 5 heap profile attributed to
// the per-call Send/Recv/TryRecv closures.
func TestSteadyStateQueueOpsAllocFree(t *testing.T) {
	m := newMachine(2, false)
	ping := NewQueue("ping", 4)
	pong := NewQueue("pong", 4)
	pong.DeliverLatency = 5_000
	mu := NewYieldMutex("mu", 0)

	step := 0
	var echo Msg
	m.Spawn("client", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		step++
		if step%2 == 1 {
			return ping.Send(p, 400, Msg{From: 1, Seq: step})
		}
		return pong.Recv(p, 400, &echo)
	}))
	sstep := 0
	var req Msg
	m.Spawn("server", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		sstep++
		if sstep%2 == 1 {
			return ping.Recv(p, 400, &req)
		}
		return pong.Send(p, 400, Msg{From: 2, Seq: req.Seq})
	}))
	loop := NewQueue("loop", 0)
	lstep := 0
	var got bool
	var polled Msg
	var pollHit bool
	m.Spawn("locker", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		lstep++
		switch lstep % 4 {
		case 1:
			return mu.TryLock(p, &got)
		case 2:
			if !got {
				return kernel.Yield{}
			}
			return mu.Unlock(p)
		case 3:
			return loop.Send(p, 200, Msg{From: 3, Seq: lstep})
		default:
			return loop.TryRecv(p, 200, &polled, &pollHit)
		}
	}))

	// Warm: buffers reach steady capacity and the engine freelist fills.
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(50*kernel.DefaultTickCycles)
	m.Run(stop)

	runTick := func() {
		target = m.Now() + sim.Time(kernel.DefaultTickCycles)
		m.Run(stop)
	}
	allocs := testing.AllocsPerRun(20, runTick)
	if allocs != 0 {
		t.Fatalf("steady-state IPC tick allocates %.1f objects, want 0", allocs)
	}
	if ping.Delivered() == 0 || pong.Delivered() == 0 || mu.Acquisitions() == 0 {
		t.Fatalf("workload idle: ping=%d pong=%d acqs=%d",
			ping.Delivered(), pong.Delivered(), mu.Acquisitions())
	}
}

// TestNewQueueNamesOneAllocation: the three diagnostic names a queue
// carries read as before, and building them costs the queue one string,
// not three — the queue itself (its two wait queues held inside it), the
// names and the bound delivery handler are all NewQueue allocates.
func TestNewQueueNamesOneAllocation(t *testing.T) {
	q := NewQueue("room3.u7.c2s", 0)
	got := []string{q.readers.Name, q.writers.Name, q.deliverName}
	for i, suffix := range []string{".readers", ".writers", ".deliver"} {
		if got[i] != "room3.u7.c2s"+suffix {
			t.Errorf("name %d = %q, want %q", i, got[i], "room3.u7.c2s"+suffix)
		}
	}
	var sink *Queue
	if allocs := testing.AllocsPerRun(100, func() { sink = NewQueue("room3.u7.c2s", 0) }); allocs > 3 {
		t.Fatalf("NewQueue allocates %.0f objects, want at most 3", allocs)
	}
	_ = sink
}

// TestQueueSize: a queue holds no per-op syscall state, so the ~800
// queues of a VolanoMark cell stay in a small size class (three scratch
// Syscalls once put each one in the 480-byte class), and it holds its two
// wait queues by value: one 208-byte object where a 176-byte queue and two
// 64-byte wait queues were three objects and 304 bytes.
func TestQueueSize(t *testing.T) {
	if size := unsafe.Sizeof(Queue{}); size > 208 {
		t.Fatalf("ipc.Queue, wait queues included, is %d bytes, want at most 208", size)
	}
}
