package kernel

import (
	"testing"

	"elsc/internal/sim"
)

func TestSerialResourceUncontended(t *testing.T) {
	r := &SerialResource{}
	if wait := r.Reserve(100, 50); wait != 0 {
		t.Fatalf("first reservation waited %d", wait)
	}
	if r.Contended() != 0 {
		t.Fatal("uncontended reservation counted as contended")
	}
}

func TestSerialResourceQueuesReservations(t *testing.T) {
	r := &SerialResource{}
	r.Reserve(100, 50) // busy until 150
	if wait := r.Reserve(120, 50); wait != 30 {
		t.Fatalf("second reservation waited %d, want 30", wait)
	}
	// Third arrives at 130; busy until 200 now.
	if wait := r.Reserve(130, 50); wait != 70 {
		t.Fatalf("third reservation waited %d, want 70", wait)
	}
	if r.Contended() != 2 {
		t.Fatalf("contended=%d, want 2", r.Contended())
	}
}

func TestSerialResourceFreePeriodsDontAccumulate(t *testing.T) {
	r := &SerialResource{}
	r.Reserve(0, 10) // busy until 10
	// Long idle gap; a reservation at 1000 must not wait.
	if wait := r.Reserve(1000, 10); wait != 0 {
		t.Fatalf("waited %d after idle gap", wait)
	}
}

func TestSpinlockModel(t *testing.T) {
	var l spinlock
	start, spin := l.acquire(100)
	if start != 100 || spin != 0 {
		t.Fatalf("uncontended acquire: start=%d spin=%d", start, spin)
	}
	l.release(150)
	start, spin = l.acquire(120)
	if start != 150 || spin != 30 {
		t.Fatalf("contended acquire: start=%d spin=%d", start, spin)
	}
}

func TestSpinlockBumpPushesBusy(t *testing.T) {
	var l spinlock
	l.bump(100, 40) // busy 100..140
	if _, spin := l.acquire(110); spin != 30 {
		t.Fatal("bump did not delay the next acquirer")
	}
}

func TestSpinlockReleaseNeverRewinds(t *testing.T) {
	var l spinlock
	l.release(200)
	l.release(150) // must not rewind
	if _, spin := l.acquire(160); spin != 40 {
		t.Fatalf("spin = %d, want 40", spin)
	}
}

func TestTraceHookSeesDecisions(t *testing.T) {
	var events []TraceEvent
	m := NewMachine(Config{
		CPUs:         1,
		Seed:         1,
		NewScheduler: vanillaFactory,
		MaxCycles:    10 * DefaultHz,
		Trace:        func(ev TraceEvent) { events = append(events, ev) },
	})
	p := m.Spawn("w", nil, computeLoop(2, 1000))
	m.Run(func() bool { return p.Exited() })
	if len(events) == 0 {
		t.Fatal("trace hook never fired")
	}
	first := events[0]
	if !first.Prev.IsIdle {
		t.Fatal("first decision should come from idle")
	}
	if first.Next == nil || first.Next.Name != "w" {
		t.Fatalf("first decision chose %v", first.Next)
	}
}

func TestWakeExitedProcIsNoop(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	wq := new(WaitQueue)
	p := m.Spawn("w", nil, computeLoop(1, 100))
	m.Run(func() bool { return p.Exited() })
	calls := m.Stats().WakeCalls
	wq.enqueue(p) // contrived: a stale wait entry
	m.WakeOne(wq)
	if m.Stats().WakeCalls != calls {
		t.Fatal("waking an exited proc should not count as a wake")
	}
}

func TestEarlyWakeCancelsSleepTimer(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	wq := new(WaitQueue)
	released := false
	phase := 0
	var wokeAt sim.Time
	sleeper := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
		phase++
		switch phase {
		case 1:
			return p.Call(Syscall{Cost: 100, Exec: func(_ *Syscall, p *Proc, now sim.Time) Outcome {
				if !released {
					return BlockOn(wq)
				}
				return Done()
			}})
		default:
			wokeAt = p.M.Now()
			return Exit{}
		}
	}))
	woken := false
	m.Spawn("waker", nil, ProgramFunc(func(p *Proc) Action {
		if woken {
			return Exit{}
		}
		woken = true
		return p.Call(Syscall{Cost: 100, Exec: func(_ *Syscall, p *Proc, now sim.Time) Outcome {
			released = true
			p.M.WakeAll(wq)
			return Done()
		}})
	}))
	m.Run(func() bool { return sleeper.Exited() })
	if wokeAt == 0 {
		t.Fatal("sleeper never woke")
	}
}

func TestStatsSummaryNonEmpty(t *testing.T) {
	m := newMachine(t, 2, vanillaFactory)
	p := m.Spawn("w", nil, computeLoop(2, 10_000))
	m.Run(func() bool { return p.Exited() })
	if len(m.Stats().Summary()) < 40 {
		t.Fatal("summary too short")
	}
	if m.Stats().KernelCycles() == 0 {
		t.Fatal("no kernel cycles accounted")
	}
}

func TestWakeDuringTransitionToIdleNotLost(t *testing.T) {
	// Regression: a wake that lands while the only eligible CPU is mid
	// context-switch toward idle must still get the task dispatched.
	// Before the fix, rescheduleIdle found no idle CPU (transitioning)
	// and no preemption victim, the dispatch completed to idle without
	// needResched, and the task sat runnable forever.
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		q := new(WaitQueue)
		ready := false
		var waiter *Proc
		waiter = m.Spawn("waiter", nil, ProgramFunc(func(p *Proc) Action {
			if ready {
				return Exit{}
			}
			return p.Call(Syscall{Cost: 100, Exec: func(_ *Syscall, p *Proc, now sim.Time) Outcome {
				if !ready {
					return BlockOn(q)
				}
				return Done()
			}})
		}))
		// The waker wakes the waiter from an engine event timed to land
		// inside the waker's own exit transition window; sweep a range
		// of offsets to cover the window deterministically.
		released := false
		m.Spawn("waker", nil, ProgramFunc(func(p *Proc) Action {
			if released {
				return Exit{}
			}
			released = true
			return Compute{Cycles: 50_000}
		}))
		for off := uint64(49_000); off < 56_000; off += 250 {
			off := off
			m.Engine().At(sim.Time(off), "wake", func(sim.Time) {
				if !ready {
					ready = true
					m.WakeAll(q)
				}
			})
		}
		m.Run(func() bool { return waiter.Exited() })
		if !waiter.Exited() {
			t.Fatal("woken task was never dispatched (lost wakeup)")
		}
	})
}
