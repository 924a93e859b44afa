package kernel

import (
	"testing"

	"elsc/internal/sim"
)

func TestHotplugRefusals(t *testing.T) {
	m := newMachine(t, 2, vanillaFactory)
	if err := m.OnlineCPU(0); err != ErrCPUOnline {
		t.Fatalf("onlining an online CPU: err = %v, want ErrCPUOnline", err)
	}
	if err := m.OfflineCPU(1); err != nil {
		t.Fatalf("first offline: %v", err)
	}
	if err := m.OfflineCPU(1); err != ErrCPUOffline {
		t.Fatalf("double offline: err = %v, want ErrCPUOffline", err)
	}
	if err := m.OfflineCPU(0); err != ErrLastCPU {
		t.Fatalf("offlining the last CPU: err = %v, want ErrLastCPU", err)
	}
	if m.env.OnlineCount() != 1 || m.cpus[1].online() {
		t.Fatalf("online count = %d, cpu1 online = %v", m.env.OnlineCount(), m.cpus[1].online())
	}
	if err := m.OnlineCPU(1); err != nil {
		t.Fatalf("bringing cpu1 back: %v", err)
	}
	if m.env.OnlineCount() != 2 {
		t.Fatalf("online count = %d after online, want 2", m.env.OnlineCount())
	}
	if s := m.Stats(); s.CPUOfflines != 1 || s.CPUOnlines != 1 {
		t.Fatalf("transition counters = %d/%d, want 1/1", s.CPUOfflines, s.CPUOnlines)
	}
}

// TestOfflineRehomesRunningTask: offlining a CPU mid-run preempts its
// task, re-queues it, and the survivor finishes everything; nothing runs
// on the dead CPU afterwards.
func TestOfflineRehomesRunningTask(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		a := m.Spawn("a", nil, computeLoop(50, 100_000))
		b := m.Spawn("b", nil, computeLoop(50, 100_000))
		m.Run(func() bool { return m.cpus[0].current != nil && m.cpus[1].current != nil })
		victim := m.cpus[1].current
		if victim == nil {
			t.Fatal("cpu1 runs nothing with two runnable hogs")
		}
		if err := m.OfflineCPU(1); err != nil {
			t.Fatal(err)
		}
		if victim.Task.HasCPU {
			t.Fatal("victim still marked running after its CPU went offline")
		}
		if !victim.Task.OnRunqueue() {
			t.Fatal("preempted victim not re-queued")
		}
		m.Run(func() bool { return m.Alive() == 0 })
		if !a.Exited() || !b.Exited() {
			t.Fatal("tasks did not finish on the surviving CPU")
		}
		if a.Task.Processor != 0 || b.Task.Processor != 0 {
			t.Fatalf("tasks last ran on CPUs %d/%d; only CPU 0 was online",
				a.Task.Processor, b.Task.Processor)
		}
	})
}

// TestWakeRacingOfflineCPUIsNotLost is the IPI re-route regression test:
// a wake-idle IPI already in flight to a CPU that goes offline before it
// lands must be re-routed to a surviving CPU, not dropped — the woken
// task still runs.
func TestWakeRacingOfflineCPUIsNotLost(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		phase := 0
		sleeper := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
			phase++
			switch phase {
			case 1:
				return Sleep{Cycles: 5 * DefaultTickCycles}
			case 2:
				return Compute{Cycles: 100_000}
			default:
				return Exit{}
			}
		}))
		m.Run(func() bool { return !sleeper.Task.Runnable() })
		// The machine is fully idle; the sleep-expiry wake will kick an
		// idle CPU with an ipiLatency-delayed IPI. Stop the instant the
		// wake fires, while that IPI is still in flight.
		m.Run(func() bool { return sleeper.Task.Runnable() })
		target := -1
		for _, c := range m.cpus {
			if c.ipiEv.Pending() {
				target = c.id
			}
		}
		if target == -1 {
			t.Fatal("no wake IPI in flight after the wake fired")
		}
		if err := m.OfflineCPU(target); err != nil {
			t.Fatal(err)
		}
		m.Run(func() bool { return m.Alive() == 0 })
		if !sleeper.Exited() {
			t.Fatalf("woken task lost: wake IPI to offlined cpu%d was dropped", target)
		}
		if sleeper.Task.Processor == target {
			t.Fatalf("sleeper ran on cpu%d after it went offline", target)
		}
	})
}

// TestOfflineParksTickAndOnlineRearms: an offline CPU's timer chain dies
// at its next firing (the preallocated event is parked, never cancelled).
// Under tickless idle OnlineCPU does not blindly restart it: with no work
// pending the CPU comes back with the chain still parked on a fresh grid
// anchor, and the first dispatch re-arms it. With -tickless=off OnlineCPU
// re-arms immediately, the pre-NO_HZ behavior.
func TestOfflineParksTickAndOnlineRearms(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	hog := m.Spawn("hog", nil, computeLoop(400, 100_000))
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(3*DefaultTickCycles)
	m.Run(stop)
	c := m.cpus[1]
	if c.tickEv.Pending() {
		t.Fatal("tick chain still armed three periods after offline")
	}
	if c.tickNext != 0 {
		t.Fatalf("offline chain anchor=%d, want parked with no anchor", c.tickNext)
	}
	if err := m.OnlineCPU(1); err != nil {
		t.Fatal(err)
	}
	// The hog is running on cpu0 and nothing is queued: the returning CPU
	// is idle, so its chain stays parked — but healthy, with a grid
	// anchor one period out for ensureTick to resume from.
	onlineAt := m.Now()
	if c.tickEv.Pending() {
		t.Fatal("tick chain armed at online with no work pending")
	}
	if c.tickNext != onlineAt+sim.Time(DefaultTickCycles) {
		t.Fatalf("online idle chain anchor=%d, want parked at online+period=%d",
			c.tickNext, onlineAt+sim.Time(DefaultTickCycles))
	}
	m.Run(func() bool { return hog.Exited() })
	if !hog.Exited() {
		t.Fatal("workload did not survive the offline/online cycle")
	}
}

// TestOfflineTicklessOffRearmsAtOnline pins the ablation contract: with
// TicklessOff the online path restores the always-on chain immediately,
// exactly as before NO_HZ.
func TestOfflineTicklessOffRearmsAtOnline(t *testing.T) {
	m := NewMachine(Config{CPUs: 2, SMP: true, Seed: 1, NewScheduler: elscFactory,
		TicklessOff: true, MaxCycles: 600 * DefaultHz})
	m.Spawn("hog", nil, computeLoop(400, 100_000))
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	target := m.Now() + sim.Time(3*DefaultTickCycles)
	m.Run(func() bool { return m.Now() >= target })
	if m.cpus[1].tickEv.Pending() {
		t.Fatal("tick chain still armed three periods after offline")
	}
	if err := m.OnlineCPU(1); err != nil {
		t.Fatal(err)
	}
	if !m.cpus[1].tickEv.Pending() {
		t.Fatal("tick chain not re-armed at online with tickless off")
	}
}

// TestOfflineIdleParkedCPU: hot-unplugging a CPU whose chain is already
// parked by tickless idle (not by an offline firing) closes the tickless
// stretch and keeps the park healthy across the offline window — online
// with no work stays parked on a fresh anchor, and the first real
// dispatch re-arms the chain.
func TestOfflineIdleParkedCPU(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	hog := m.Spawn("hog", nil, computeLoop(2000, 100_000))
	c := m.cpus[1]
	// Let cpu1 idle long enough for its first tick to fire and park.
	m.Run(func() bool { return !c.tickEv.Pending() })
	if c.tickNext == 0 {
		t.Fatal("idle park lost its grid anchor")
	}
	ticklessBefore := m.CPUStats()[1].TicklessCycles
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	target := m.Now() + sim.Time(3*DefaultTickCycles)
	m.Run(func() bool { return m.Now() >= target })
	if got := m.CPUStats()[1].TicklessCycles; got < ticklessBefore {
		t.Fatalf("tickless accounting went backwards across offline: %d -> %d",
			ticklessBefore, got)
	}
	if err := m.OnlineCPU(1); err != nil {
		t.Fatal(err)
	}
	if c.tickEv.Pending() {
		t.Fatal("tick chain armed at online with the only task running elsewhere")
	}
	if c.tickNext == 0 {
		t.Fatal("online chain parked with no anchor, want a healthy park")
	}
	// New work wakes the machine; the returning CPU must be usable.
	side := m.Spawn("side", nil, computeLoop(10, 100_000))
	m.Run(func() bool { return side.Exited() })
	if !side.Exited() {
		t.Fatal("work spawned after the online never ran")
	}
	m.Run(func() bool { return hog.Exited() })
}

// TestOnlineIntoPendingWorkRearmsOnce: bringing a CPU back while tasks
// are queued kicks it (one IPI), and the resulting dispatch re-arms the
// parked chain exactly once — OnlineCPU itself must not also arm it, or
// the engine would panic scheduling an already-queued event.
func TestOnlineIntoPendingWorkRearmsOnce(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	var hogs []*Proc
	for i := 0; i < 4; i++ {
		hogs = append(hogs, m.Spawn("hog", nil, computeLoop(100, 100_000)))
	}
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	target := m.Now() + sim.Time(3*DefaultTickCycles)
	m.Run(func() bool { return m.Now() >= target })
	if err := m.OnlineCPU(1); err != nil {
		t.Fatal(err)
	}
	c := m.cpus[1]
	// The kick is an IPI in flight; the chain re-arms when it lands and
	// the CPU dispatches, not at the online instant itself.
	if c.tickEv.Pending() {
		t.Fatal("tick chain armed at online; must wait for the dispatch")
	}
	if !c.ipiEv.Pending() {
		t.Fatal("online into pending work sent no kick")
	}
	m.Run(func() bool { return c.current != nil })
	if !c.tickEv.Pending() {
		t.Fatal("tick chain not re-armed by the post-online dispatch")
	}
	for _, h := range hogs {
		m.Run(func() bool { return h.Exited() })
	}
}

// TestPinnedTaskFallsBackWhenCPUDies: a task affined solely to an
// offlined CPU is widened to run anywhere (cpuset fallback) and re-pinned
// the moment its CPU returns. The restored mask binds at the next
// scheduling decision (as with SetAffinity), so the task is given several
// quanta of work past the online point — its final dispatches can only
// land on its own CPU again.
func TestPinnedTaskFallsBackWhenCPUDies(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		p := m.Spawn("pinned", nil, computeLoop(1200, 1_000_000)) // ~300 ticks of work
		m.SetAffinity(p, 1<<1)
		bg := m.Spawn("bg", nil, computeLoop(1600, 1_000_000))
		m.Run(func() bool { return p.Task.UserCycles > 0 })
		if err := m.OfflineCPU(1); err != nil {
			t.Fatal(err)
		}
		if p.Task.CPUsAllowed != 0 {
			t.Fatalf("fallback not applied: mask %#x", p.Task.CPUsAllowed)
		}
		if p.savedAffinity != 1<<1 {
			t.Fatalf("saved affinity %#x, want %#x", p.savedAffinity, uint64(1<<1))
		}
		// The task must make progress on the survivor while its CPU is
		// down. The window spans more than a full default quantum, since
		// the background hog may hold the survivor until its quantum
		// expires before the fallback task gets its first turn.
		before := p.Task.UserCycles
		var target sim.Time
		stop := func() bool { return m.Now() >= target }
		target = m.Now() + sim.Time(45*DefaultTickCycles)
		m.Run(stop)
		if p.Task.UserCycles <= before {
			t.Fatal("pinned task made no progress under cpuset fallback")
		}
		if err := m.OnlineCPU(1); err != nil {
			t.Fatal(err)
		}
		if p.Task.CPUsAllowed != 1<<1 || p.savedAffinity != 0 {
			t.Fatalf("re-pin failed: mask %#x saved %#x", p.Task.CPUsAllowed, p.savedAffinity)
		}
		m.Run(func() bool { return p.Exited() })
		if p.Task.Processor != 1 {
			t.Fatalf("re-pinned task finished on CPU %d, want 1", p.Task.Processor)
		}
		_ = bg
	})
}

// TestSetAffinityToOfflineCPUFallsBackImmediately: pinning a task to an
// already-offline CPU applies the fallback at SetAffinity time rather
// than stranding it.
func TestSetAffinityToOfflineCPUFallsBackImmediately(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	p := m.Spawn("p", nil, computeLoop(100, 100_000))
	if err := m.OfflineCPU(1); err != nil {
		t.Fatal(err)
	}
	m.SetAffinity(p, 1<<1)
	if p.Task.CPUsAllowed != 0 || p.savedAffinity != 1<<1 {
		t.Fatalf("mask %#x saved %#x after pinning to a dead CPU",
			p.Task.CPUsAllowed, p.savedAffinity)
	}
	m.Run(func() bool { return p.Exited() })
	if !p.Exited() {
		t.Fatal("task pinned to a dead CPU never ran")
	}
}

// preboundHog is a CPU hog whose Compute action is boxed once at
// construction: steady-state program steps then touch the allocator zero
// times, which is what the AllocsPerRun tests below need.
func preboundHog(steps int, c uint64) Program {
	n := 0
	act := Action(Compute{Cycles: c})
	return ProgramFunc(func(p *Proc) Action {
		n++
		if n > steps {
			return Exit{}
		}
		return act
	})
}

// TestHotplugCycleAllocFree locks in the zero-allocation contract for the
// hotplug path itself: once the machine, engine, and drain buffer are
// warm, a full offline→online cycle (preempt, drain, re-file, re-arm)
// under the per-CPU-array policy with a real per-CPU Drain, watchdog armed,
// allocates nothing.
func TestHotplugCycleAllocFree(t *testing.T) {
	m := NewMachine(Config{
		CPUs: 4, SMP: true, Seed: 42, NewScheduler: o1Factory,
		MaxCycles: 60_000 * DefaultHz,
		Watchdog:  &WatchdogConfig{},
	})
	for i := 0; i < 8; i++ {
		m.Spawn("hog", nil, preboundHog(1_000_000, 2*DefaultTickCycles))
	}
	var target sim.Time
	stop := func() bool { return m.Now() >= target }
	target = m.Now() + sim.Time(100*DefaultTickCycles)
	m.Run(stop)

	var offErr, onErr error
	cycle := func() {
		offErr = m.OfflineCPU(2)
		target = m.Now() + sim.Time(10*DefaultTickCycles)
		m.Run(stop)
		onErr = m.OnlineCPU(2)
		target = m.Now() + sim.Time(10*DefaultTickCycles)
		m.Run(stop)
	}
	cycle() // warm: drain buffer capacity, freelist high-water mark
	allocs := testing.AllocsPerRun(5, cycle)
	if offErr != nil || onErr != nil {
		t.Fatalf("cycle errors: offline %v, online %v", offErr, onErr)
	}
	if allocs != 0 {
		t.Fatalf("offline/online cycle allocates %.1f objects, want 0", allocs)
	}
	if m.Alive() == 0 {
		t.Fatal("workload drained before the measurement ended; cycles ran on an idle machine")
	}
	if s := m.Stats(); s.WatchdogStarvations+s.WatchdogLostWakeups+s.WatchdogCPUStalls != 0 {
		t.Fatalf("watchdog flagged a healthy hotplug cycle: %+v", *s)
	}
}

// TestInterruptedSegmentResumesOnSameEvent: a CPU's segment completion is
// one caller-owned event, cancelled by whatever interrupts the segment —
// a resched IPI, the tick's quantum expiry, OfflineCPU — and armed again
// when a dispatch resumes it. After every event of a run that takes all
// three paths, a CPU's rundone is pending exactly while it has a current
// proc; and once warm the segment → interrupt → dispatch → resume cycle
// allocates nothing.
func TestInterruptedSegmentResumesOnSameEvent(t *testing.T) {
	m := NewMachine(Config{
		CPUs: 2, SMP: true, Seed: 42, NewScheduler: o1Factory,
		MaxCycles: 60_000 * DefaultHz,
	})
	for i := 0; i < 3; i++ {
		m.Spawn("hog", nil, preboundHog(1_000_000, 50*DefaultTickCycles))
	}
	audit := func() {
		t.Helper()
		for i, c := range m.cpus {
			if c.runEv.Pending() != (c.current != nil) {
				t.Fatalf("cpu%d at %d: rundone pending=%v with current=%v",
					i, m.Now(), c.runEv.Pending(), c.current != nil)
			}
		}
	}
	var target sim.Time
	run := func(ticks uint64) {
		target = m.Now() + sim.Time(ticks*DefaultTickCycles)
		m.Run(func() bool { audit(); return m.Now() >= target })
	}
	run(3)

	// Resched IPI, step by step: the segment stops short, its event is
	// free, and the dispatch that brings the proc back arms the same
	// event for what is left.
	c := m.cpus[0]
	p := c.current
	if p == nil || !c.runEv.Pending() {
		t.Fatal("cpu0 is not mid-segment after warm-up")
	}
	before := p.remaining
	c.sendIPI()
	m.Run(func() bool { audit(); return !c.ipiEv.Pending() })
	if c.runEv.Pending() || p.remaining == 0 || p.remaining >= before {
		t.Fatalf("after the IPI: rundone pending=%v, remaining %d of %d", c.runEv.Pending(), p.remaining, before)
	}
	left := p.remaining
	m.Run(func() bool { audit(); return p.Task.HasCPU && m.cpus[p.Task.Processor].current == p })
	if on := m.cpus[p.Task.Processor]; !on.runEv.Pending() || on.runEv.At != m.Now()+sim.Time(p.segWall) || p.segWork != left {
		t.Fatalf("resumed segment: rundone pending=%v at %d (now %d + wall %d), work %d, want %d",
			on.runEv.Pending(), on.runEv.At, m.Now(), p.segWall, p.segWork, left)
	}

	cycle := func() {
		m.cpus[0].sendIPI()
		run(2)
		if err := m.OfflineCPU(1); err != nil {
			t.Fatal(err)
		}
		run(2)
		if err := m.OnlineCPU(1); err != nil {
			t.Fatal(err)
		}
		run(30) // three hogs on two CPUs: quanta expire
	}
	s0 := *m.Stats()
	cycle() // warm
	if s := m.Stats(); s.QuantumExpiry == s0.QuantumExpiry || s.CPUOfflines == s0.CPUOfflines {
		t.Fatalf("cycle took no quantum expiry (%d) or offline (%d)", s.QuantumExpiry, s.CPUOfflines)
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("segment/interrupt/dispatch/resume cycle allocates %.1f objects, want 0", allocs)
	}
	if m.Alive() != 3 {
		t.Fatal("a hog exited: the cycles outlived the workload they were to interrupt")
	}
}
