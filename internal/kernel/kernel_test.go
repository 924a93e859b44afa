package kernel

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/task"
)

func vanillaFactory(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
func elscFactory(env *sched.Env) sched.Scheduler    { return elsc.New(env) }

// bothSchedulers runs the subtest against each policy.
func bothSchedulers(t *testing.T, fn func(t *testing.T, factory SchedulerFactory)) {
	t.Helper()
	t.Run("vanilla", func(t *testing.T) { fn(t, vanillaFactory) })
	t.Run("elsc", func(t *testing.T) { fn(t, elscFactory) })
}

func newMachine(t *testing.T, cpus int, factory SchedulerFactory) *Machine {
	t.Helper()
	return NewMachine(Config{
		CPUs:         cpus,
		SMP:          cpus > 1,
		Seed:         42,
		NewScheduler: factory,
		MaxCycles:    50 * DefaultHz, // generous safety horizon
	})
}

// computeLoop returns a program that computes n chunks of c cycles.
func computeLoop(n int, c uint64) Program {
	i := 0
	return ProgramFunc(func(p *Proc) Action {
		if i >= n {
			return Exit{}
		}
		i++
		return Compute{Cycles: c}
	})
}

func TestSingleTaskRunsToExit(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		p := m.Spawn("worker", nil, computeLoop(10, 1000))
		m.Run(func() bool { return p.Exited() })
		if !p.Exited() {
			t.Fatal("task did not exit")
		}
		if p.Task.UserCycles != 10000 {
			t.Fatalf("user cycles = %d, want 10000", p.Task.UserCycles)
		}
		if m.Alive() != 0 {
			t.Fatalf("alive = %d, want 0", m.Alive())
		}
		if m.Now() == 0 {
			t.Fatal("virtual time did not advance")
		}
	})
}

func TestAllTasksComplete(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		const n = 20
		for i := 0; i < n; i++ {
			m.Spawn("w", nil, computeLoop(5, 10000))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		if m.Alive() != 0 {
			t.Fatalf("alive = %d, want 0", m.Alive())
		}
		for _, p := range m.Procs() {
			if !p.Exited() {
				t.Fatalf("%v never exited", p.Task)
			}
		}
	})
}

func TestQuantumExpiryForcesSwitch(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		// Two CPU hogs, each needing 60 ticks of CPU: quantum (20
		// ticks) must expire repeatedly.
		a := m.Spawn("a", nil, computeLoop(1, 60*DefaultTickCycles))
		b := m.Spawn("b", nil, computeLoop(1, 60*DefaultTickCycles))
		m.Run(func() bool { return a.Exited() && b.Exited() })
		if m.Stats().QuantumExpiry == 0 {
			t.Fatal("no quantum expiries recorded")
		}
		if m.Stats().Recalcs == 0 {
			t.Fatal("CPU hogs must trigger counter recalculation")
		}
		if a.Task.InvSwitches == 0 && b.Task.InvSwitches == 0 {
			t.Fatal("no involuntary switches")
		}
	})
}

func TestFairnessBetweenEqualHogs(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		total := uint64(100 * DefaultTickCycles)
		a := m.Spawn("a", nil, computeLoop(1, total))
		b := m.Spawn("b", nil, computeLoop(1, total))
		// Run until the first finishes; at that point the other should
		// have had roughly half the CPU.
		m.Run(func() bool { return a.Exited() || b.Exited() })
		ua, ub := a.Task.UserCycles, b.Task.UserCycles
		lo, hi := ua, ub
		if lo > hi {
			lo, hi = hi, lo
		}
		if float64(lo) < 0.7*float64(hi) {
			t.Fatalf("unfair split: %d vs %d", ua, ub)
		}
	})
}

func TestPriorityGetsProportionallyMore(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		hi := m.Spawn("hi", nil, computeLoop(1, 400*DefaultTickCycles))
		lo := m.Spawn("lo", nil, computeLoop(1, 400*DefaultTickCycles))
		m.SetPriority(hi, 40)
		m.SetPriority(lo, 10)
		m.Run(func() bool { return hi.Exited() || lo.Exited() })
		if hi.Task.UserCycles <= lo.Task.UserCycles {
			t.Fatalf("priority 40 task got %d cycles, priority 10 got %d",
				hi.Task.UserCycles, lo.Task.UserCycles)
		}
	})
}

func TestSleepDuration(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		var wokeAt sim.Time
		step := 0
		p := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
			step++
			switch step {
			case 1:
				return Sleep{Cycles: 1_000_000}
			case 2:
				wokeAt = p.M.Now()
				return Exit{}
			}
			return nil
		}))
		m.Run(func() bool { return p.Exited() })
		if wokeAt < 1_000_000 {
			t.Fatalf("woke at %d, want >= 1000000", wokeAt)
		}
		// Allow syscall/dispatch overhead but not an extra quantum.
		if wokeAt > 1_500_000 {
			t.Fatalf("woke far too late: %d", wokeAt)
		}
	})
}

func TestBlockingSyscallAndWake(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		wq := new(WaitQueue)
		full := false // one-slot mailbox

		consumed := 0
		consumer := m.Spawn("consumer", nil, ProgramFunc(func(p *Proc) Action {
			if consumed >= 3 {
				return Exit{}
			}
			return p.Call(Syscall{Cost: 500, Exec: func(_ *Syscall, p *Proc, now sim.Time) Outcome {
				if !full {
					return BlockOn(wq)
				}
				full = false
				consumed++
				p.M.WakeAll(wq) // release a producer blocked on a full box
				return Done()
			}})
		}))
		sent := 0
		producer := m.Spawn("producer", nil, ProgramFunc(func(p *Proc) Action {
			if sent >= 3 {
				return Exit{}
			}
			return p.Call(Syscall{Cost: 500, Exec: func(_ *Syscall, p *Proc, now sim.Time) Outcome {
				if full {
					return BlockOn(wq)
				}
				full = true
				sent++
				p.M.WakeAll(wq)
				return Done()
			}})
		}))
		m.Run(func() bool { return consumer.Exited() && producer.Exited() })
		if consumed != 3 || sent != 3 {
			t.Fatalf("consumed=%d sent=%d, want 3/3", consumed, sent)
		}
		if m.Stats().WakeCalls == 0 {
			t.Fatal("no wake calls recorded")
		}
	})
}

// TestSyscallNotArmedByCallPanics: the kernel runs a *Syscall in place, so
// one that is not the stepping proc's own slot — a program-owned value, or
// another proc's slot — is rejected at the step that returns it.
func TestSyscallNotArmedByCallPanics(t *testing.T) {
	done := func(*Syscall, *Proc, sim.Time) Outcome { return Done() }
	other := newMachine(t, 1, vanillaFactory).Spawn("other", nil, computeLoop(1, 1))
	for name, act := range map[string]func(p *Proc) Action{
		"program-owned": func(*Proc) Action { return &Syscall{Exec: done} },
		"another proc's slot": func(*Proc) Action {
			return other.Call(Syscall{Exec: done})
		},
	} {
		t.Run(name, func(t *testing.T) {
			m := newMachine(t, 1, vanillaFactory)
			m.Spawn("bad", nil, ProgramFunc(act))
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Proc.Call") {
					t.Fatalf("recovered %v, want a panic naming Proc.Call", r)
				}
			}()
			m.Run(func() bool { return m.Now() > sim.Time(DefaultTickCycles) })
		})
	}
}

func TestWakePreemptsWeakerTask(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		// A CPU hog with low priority, and a sleeper with high priority
		// that wakes mid-run: the wake must preempt the hog.
		hog := m.Spawn("hog", nil, computeLoop(1, 50*DefaultTickCycles))
		m.SetPriority(hog, 10)
		var ranAt sim.Time
		step := 0
		sleeper := m.Spawn("sleeper", nil, ProgramFunc(func(p *Proc) Action {
			step++
			switch step {
			case 1:
				return Sleep{Cycles: 3 * DefaultTickCycles}
			case 2:
				ranAt = p.M.Now()
				return Exit{}
			}
			return nil
		}))
		m.SetPriority(sleeper, 40)
		m.Run(func() bool { return sleeper.Exited() })
		// The sleeper must get the CPU shortly after its wake, well
		// before the hog's 50-tick run completes.
		if ranAt > sim.Time(6*DefaultTickCycles) {
			t.Fatalf("sleeper ran at %d, preemption failed", ranAt)
		}
		if m.Stats().Preemptions == 0 {
			t.Fatal("no preemptions recorded")
		}
	})
}

func TestYieldAlternation(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		mk := func(n *int) Program {
			return ProgramFunc(func(p *Proc) Action {
				if *n >= 50 {
					return Exit{}
				}
				*n++
				return Yield{}
			})
		}
		var na, nb int
		a := m.Spawn("a", nil, mk(&na))
		b := m.Spawn("b", nil, mk(&nb))
		m.Run(func() bool { return a.Exited() && b.Exited() })
		if na != 50 || nb != 50 {
			t.Fatalf("yields: a=%d b=%d, want 50/50", na, nb)
		}
		if m.Stats().YieldCalls != 100 {
			t.Fatalf("yield calls = %d, want 100", m.Stats().YieldCalls)
		}
	})
}

func TestVanillaYieldStormRecalculates(t *testing.T) {
	// The Figure 2 mechanism, baseline side: a lone yielding task drives
	// the stock scheduler into the recalculation loop on every yield.
	m := newMachine(t, 1, vanillaFactory)
	n := 0
	p := m.Spawn("yielder", nil, ProgramFunc(func(p *Proc) Action {
		if n >= 100 {
			return Exit{}
		}
		n++
		return Yield{}
	}))
	m.Run(func() bool { return p.Exited() })
	if m.Stats().Recalcs < 90 {
		t.Fatalf("recalcs = %d, want ~100 (one per lonely yield)", m.Stats().Recalcs)
	}
}

func TestELSCYieldStormAvoidsRecalc(t *testing.T) {
	// The Figure 2 mechanism, ELSC side: the same workload triggers
	// (almost) no recalculation.
	m := newMachine(t, 1, elscFactory)
	n := 0
	p := m.Spawn("yielder", nil, ProgramFunc(func(p *Proc) Action {
		if n >= 100 {
			return Exit{}
		}
		n++
		return Yield{}
	}))
	m.Run(func() bool { return p.Exited() })
	if m.Stats().Recalcs > 2 {
		t.Fatalf("recalcs = %d, want ~0 (ELSC re-runs the yielder)", m.Stats().Recalcs)
	}
}

func TestSMPUsesAllCPUs(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 4, f)
		for i := 0; i < 8; i++ {
			m.Spawn("w", nil, computeLoop(1, 20*DefaultTickCycles))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		elapsed := uint64(m.Now())
		totalWork := uint64(8 * 20 * DefaultTickCycles)
		// With 4 CPUs, elapsed must be far below serial time.
		if elapsed > totalWork/2 {
			t.Fatalf("elapsed %d vs serial %d: no parallelism", elapsed, totalWork)
		}
	})
}

func TestMigrationsHappenOnSMP(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		// Interactive tasks with *irregular* burst/sleep lengths: the
		// resulting imbalance forces schedule() to sometimes pull a
		// task that last ran on the other CPU.
		for i := 0; i < 6; i++ {
			n := 0
			rng := m.RNG().Fork()
			m.Spawn("w", nil, ProgramFunc(func(p *Proc) Action {
				if n >= 40 {
					return Exit{}
				}
				n++
				if n%2 == 0 {
					return Sleep{Cycles: rng.Range(5_000, 80_000)}
				}
				return Compute{Cycles: rng.Range(20_000, 150_000)}
			}))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		if m.Stats().Migrations == 0 {
			t.Fatal("expected some cross-CPU migrations")
		}
	})
}

func TestDeterminism(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		run := func() (sim.Time, uint64, uint64) {
			m := newMachine(t, 2, f)
			for i := 0; i < 10; i++ {
				m.Spawn("w", nil, computeLoop(20, 100_000))
			}
			m.Run(func() bool { return m.Alive() == 0 })
			return m.Now(), m.Stats().SchedCalls, m.Stats().CtxSwitches
		}
		t1, s1, c1 := run()
		t2, s2, c2 := run()
		if t1 != t2 || s1 != s2 || c1 != c2 {
			t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", t1, s1, c1, t2, s2, c2)
		}
	})
}

func TestIdleAccounting(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		// One task on two CPUs: one CPU must accumulate idle time.
		p := m.Spawn("solo", nil, computeLoop(1, 5*DefaultTickCycles))
		m.Run(func() bool { return p.Exited() })
		if m.Stats().IdleCycles == 0 {
			t.Fatal("no idle cycles on a 2-CPU machine with 1 task")
		}
	})
}

func TestStatsRegistryRenders(t *testing.T) {
	m := newMachine(t, 1, elscFactory)
	p := m.Spawn("w", nil, computeLoop(3, 1000))
	m.Run(func() bool { return p.Exited() })
	out := m.Stats().Registry().Render()
	for _, want := range []string{"sched_calls", "ctx_switches", "cycles_per_schedule"} {
		if !contains(out, want) {
			t.Fatalf("registry output missing %q:\n%s", want, out)
		}
	}
	if m.Stats().Summary() == "" {
		t.Fatal("empty summary")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestSpawnMidRun(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 1, f)
		var child *Proc
		step := 0
		parent := m.Spawn("parent", nil, ProgramFunc(func(p *Proc) Action {
			step++
			switch step {
			case 1:
				return Compute{Cycles: 10000}
			case 2:
				child = m.Spawn("child", nil, computeLoop(2, 5000))
				return Compute{Cycles: 10000}
			}
			return nil
		}))
		m.Run(func() bool {
			return parent.Exited() && child != nil && child.Exited()
		})
		if child == nil || !child.Exited() {
			t.Fatal("mid-run spawned child did not complete")
		}
	})
}

func TestLockContentionAccumulates(t *testing.T) {
	// With 4 CPUs hammering schedule(), the run-queue lock must show
	// contention.
	m := newMachine(t, 4, vanillaFactory)
	for i := 0; i < 40; i++ {
		n := 0
		m.Spawn("switcher", nil, ProgramFunc(func(p *Proc) Action {
			if n >= 30 {
				return Exit{}
			}
			n++
			return Sleep{Cycles: 20_000}
		}))
	}
	m.Run(func() bool { return m.Alive() == 0 })
	if m.Stats().LockContended == 0 {
		t.Fatal("no lock contention on a busy 4-CPU machine")
	}
	if m.Stats().SpinCycles == 0 {
		t.Fatal("no spin cycles recorded")
	}
}

func TestMaxCyclesHorizonStopsRunaway(t *testing.T) {
	m := NewMachine(Config{
		CPUs:         1,
		Seed:         1,
		NewScheduler: elscFactory,
		MaxCycles:    DefaultTickCycles * 3,
	})
	m.Spawn("forever", nil, ProgramFunc(func(p *Proc) Action {
		return Compute{Cycles: 1000}
	}))
	m.Run(nil) // must terminate despite the immortal task
	if m.Now() != sim.Time(DefaultTickCycles*3) {
		t.Fatalf("stopped at %d, want the horizon %d", m.Now(), DefaultTickCycles*3)
	}
}

func TestCachePenaltyChargedOnMigration(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		for i := 0; i < 6; i++ {
			m.Spawn("w", nil, computeLoop(30, DefaultTickCycles/3))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		if m.Stats().CacheCycles == 0 {
			t.Fatal("no cache-refill penalties charged")
		}
	})
}

func TestSchedulerShareGrowsWithRunnableCount(t *testing.T) {
	// The heart of the paper's problem statement: with many runnable
	// tasks, the stock scheduler burns a growing share of kernel time.
	share := func(n int) float64 {
		m := newMachine(t, 1, vanillaFactory)
		for i := 0; i < n; i++ {
			k := 0
			m.Spawn("switcher", nil, ProgramFunc(func(p *Proc) Action {
				if k >= 20 {
					return Exit{}
				}
				k++
				return Sleep{Cycles: 50_000}
			}))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		return m.Stats().SchedulerShareOfKernel()
	}
	small, large := share(4), share(100)
	if large <= small {
		t.Fatalf("scheduler share did not grow: %f at 4 tasks, %f at 100", small, large)
	}
}

// numaMachine builds a 2-CPU machine split into two single-CPU cache
// domains, the smallest topology where migration crosses a domain.
func numaMachine(t *testing.T, f SchedulerFactory) *Machine {
	t.Helper()
	return NewMachine(Config{
		CPUs:         2,
		SMP:          true,
		Topology:     sched.UniformTopology(2, 2),
		Seed:         42,
		NewScheduler: f,
		MaxCycles:    200 * DefaultHz,
	})
}

func TestTopologyCPUCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched topology did not panic")
		}
	}()
	NewMachine(Config{
		CPUs:         4,
		SMP:          true,
		Topology:     sched.UniformTopology(2, 2),
		NewScheduler: vanillaFactory,
	})
}

// roamProgram alternates compute chunks with short sleeps, so an
// affinity change can take effect at the next wake-up. done reports how
// many compute chunks have finished.
func roamProgram(chunks int, chunk uint64, done *int) Program {
	step := 0
	return ProgramFunc(func(*Proc) Action {
		step++
		if step > 2*chunks {
			return Exit{}
		}
		if step%2 == 1 {
			return Compute{Cycles: chunk}
		}
		*done++
		return Sleep{Cycles: 10_000}
	})
}

// TestRemoteExecutionStretch pins a task's first touch to domain 0, then
// exiles it to domain 1: with RemoteAccessPct at 200, execution there
// runs at one third speed, so ~2 extra wall cycles accrue per work cycle
// until the rehome horizon.
func TestRemoteExecutionStretch(t *testing.T) {
	m := numaMachine(t, vanillaFactory)
	const chunk = 1_000_000
	done := 0
	p := m.Spawn("roamer", nil, roamProgram(15, chunk, &done))
	m.SetAffinity(p, 1<<0) // first touch on CPU 0 / domain 0
	m.Run(func() bool { return done >= 5 })
	if got := m.Stats().RemoteCycles; got != 0 {
		t.Fatalf("remote cycles = %d while running in the home domain, want 0", got)
	}
	m.SetAffinity(p, 1<<1) // exile to domain 1
	m.Run(func() bool { return p.Exited() })
	remote := m.Stats().RemoteCycles
	// ~10M cycles of work ran in exile (below the 20M rehome horizon),
	// each stretched 3x: expect about 20M extra wall cycles.
	if remote < 15_000_000 || remote > 25_000_000 {
		t.Fatalf("remote cycles = %d, want ~20M for ~10M exiled work at 200%%", remote)
	}
	if m.Stats().CrossDomainMigrations == 0 {
		t.Fatal("the forced exile was not counted as a cross-domain migration")
	}
}

// TestRehomeBoundsRemotePenalty runs far past the rehome horizon in the
// foreign domain: once the pages migrate, the stretch must stop, so the
// remote total stays pinned near 2 x RehomeCycles no matter how much
// longer the task runs there. The pages follow work, not wall time: with
// no access penalty nothing stretches, and they migrate all the same.
func TestRehomeBoundsRemotePenalty(t *testing.T) {
	for _, tc := range []struct {
		pct    uint64
		lo, hi uint64
	}{
		// 60M of exiled work, but only the first ~20M (RehomeCycles)
		// pays: ~40M extra wall cycles, then the task is local again.
		{pct: 200, lo: 35_000_000, hi: 46_000_000},
		{pct: 0, lo: 0, hi: 0},
	} {
		m := numaMachine(t, vanillaFactory)
		m.env.Cost.RemoteAccessPct = tc.pct
		const chunk = 1_000_000
		done := 0
		p := m.Spawn("settler", nil, roamProgram(65, chunk, &done))
		m.SetAffinity(p, 1<<0)
		m.Run(func() bool { return done >= 5 })
		m.SetAffinity(p, 1<<1)
		m.Run(func() bool { return p.Exited() })
		if remote := m.Stats().RemoteCycles; remote < tc.lo || remote > tc.hi {
			t.Fatalf("RemoteAccessPct %d: remote cycles = %d, want %d..%d", tc.pct, remote, tc.lo, tc.hi)
		}
		if p.memDomain != 1 {
			t.Fatalf("RemoteAccessPct %d: memory still in domain %d after 60M cycles of work in domain 1", tc.pct, p.memDomain)
		}
	}
}

// TestFlatTopologyNeverRemote is the guard for every pre-topology
// experiment: on a flat machine no dispatch is cross-domain and no cycle
// is remote, whatever the scheduler does.
func TestFlatTopologyNeverRemote(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, f SchedulerFactory) {
		m := newMachine(t, 2, f)
		for i := 0; i < 6; i++ {
			m.Spawn("w", nil, computeLoop(30, DefaultTickCycles/3))
		}
		m.Run(func() bool { return m.Alive() == 0 })
		st := m.Stats()
		if st.CrossDomainMigrations != 0 || st.RemoteCycles != 0 {
			t.Fatalf("flat machine recorded %d cross-domain migrations, %d remote cycles",
				st.CrossDomainMigrations, st.RemoteCycles)
		}
	})
}

// TestCrossDomainRefillCharged compares the same forced migration on a
// flat and a domained 2-CPU machine: crossing the domain must cost more
// cache-refill cycles than the flat move.
func TestCrossDomainRefillCharged(t *testing.T) {
	penalty := func(topo *sched.Topology) uint64 {
		m := NewMachine(Config{
			CPUs: 2, SMP: true, Topology: topo, Seed: 42,
			NewScheduler: vanillaFactory,
			MaxCycles:    200 * DefaultHz,
		})
		done := 0
		p := m.Spawn("mover", nil, roamProgram(10, 200_000, &done))
		m.SetAffinity(p, 1<<0)
		m.Run(func() bool { return done >= 3 })
		m.SetAffinity(p, 1<<1)
		m.Run(func() bool { return p.Exited() })
		return m.Stats().CacheCycles
	}
	flat := penalty(nil)
	domained := penalty(sched.UniformTopology(2, 2))
	if domained <= flat {
		t.Fatalf("cross-domain refill (%d) not above intra-domain (%d)", domained, flat)
	}
}

// TestProcOfRejectsForeignTasks: the task→proc mapping is an owner pointer
// set at spawn; a task nobody spawned, and a task spawned on another
// machine, must still panic rather than hand back a stranger's proc.
func TestProcOfRejectsForeignTasks(t *testing.T) {
	m := newMachine(t, 1, vanillaFactory)
	other := newMachine(t, 1, vanillaFactory)
	own := m.Spawn("own", nil, computeLoop(1, 1000))
	if got := m.procOf(own.Task); got != own {
		t.Fatalf("procOf(own task) = %v, want its proc", got)
	}
	for name, tk := range map[string]*task.Task{
		"never spawned":   task.New(99, "stray", nil, nil),
		"another machine": other.Spawn("theirs", nil, computeLoop(1, 1000)).Task,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("procOf(task of %s) did not panic", name)
				}
			}()
			m.procOf(tk)
		}()
	}
}

// TestExitCursorMatchesFullWalk: the amortised stop predicate must agree
// with re-walking every proc, at every event of a run in which procs exit
// out of spawn order.
func TestExitCursorMatchesFullWalk(t *testing.T) {
	m := newMachine(t, 2, vanillaFactory)
	var procs []*Proc
	var cur ExitCursor
	if !cur.AllExited(procs) {
		t.Fatal("no procs: all have exited")
	}
	for _, n := range []int{9, 1, 5, 3, 7} {
		procs = append(procs, m.Spawn("w", nil, computeLoop(n, 10000)))
	}
	events := 0
	m.Run(func() bool {
		events++
		want := true
		for _, p := range procs {
			want = want && p.Exited()
		}
		if got := cur.AllExited(procs); got != want {
			t.Fatalf("event %d: cursor says %v, full walk says %v", events, got, want)
		}
		return want
	})
	if !cur.AllExited(procs) || m.Alive() != 0 {
		t.Fatalf("run ended with %d alive", m.Alive())
	}
}

// TestComputeSegmentLoopAllocFree: a hog's user-mode Compute ending at
// home, credited, stepped and re-armed — segmentDone's common case, most
// of a saturated cell's events — touches the allocator zero times once the
// machine is warm, the ticks and quantum expiries between segments
// included.
func TestComputeSegmentLoopAllocFree(t *testing.T) {
	m := newMachine(t, 2, elscFactory)
	hogs := make([]*Proc, 4)
	for i := range hogs {
		hogs[i] = m.Spawn("hog", nil, preboundHog(1<<30, 50_000))
	}
	steps := func() (n uint64) {
		for _, p := range hogs {
			n += p.Steps
		}
		return n
	}
	var target uint64
	stop := func() bool { return steps() >= target }
	target = 1000
	m.Run(stop)

	const segments = 2000
	allocs := testing.AllocsPerRun(10, func() {
		target = steps() + segments
		m.Run(stop)
	})
	if allocs != 0 {
		t.Fatalf("%d compute segments allocate %.1f objects, want 0", segments, allocs)
	}
	if got := steps(); got < 1000+11*segments {
		t.Fatalf("hogs completed %d segments, want at least %d", got, 1000+11*segments)
	}
}

// TestProcSize: a chat cell builds one Proc per simulated thread, about
// 800 of them, so the record stays in the allocator's 256-byte class
// (296 bytes, the 320-byte class, while it carried an unused exit code, a
// syscall pointer that only ever named its own slot, a sleep-duration
// word and word-sized domain indices). The fields the segment path reads
// stay on the first two 64-byte lines of the 256-byte-aligned object.
func TestProcSize(t *testing.T) {
	var p Proc
	if size := unsafe.Sizeof(p); size > 256 {
		t.Fatalf("kernel.Proc is %d bytes, want at most 256", size)
	}
	for name, off := range map[string]uintptr{
		"remaining":   unsafe.Offsetof(p.remaining),
		"onDone":      unsafe.Offsetof(p.onDone),
		"segWork":     unsafe.Offsetof(p.segWork),
		"segWall":     unsafe.Offsetof(p.segWall),
		"workStamp":   unsafe.Offsetof(p.workStamp),
		"foreignWork": unsafe.Offsetof(p.foreignWork),
		"memDomain":   unsafe.Offsetof(p.memDomain),
		"foreignDom":  unsafe.Offsetof(p.foreignDom),
		"inSyscall":   unsafe.Offsetof(p.inSyscall),
		"prog":        unsafe.Offsetof(p.prog),
		"Steps":       unsafe.Offsetof(p.Steps),
	} {
		if off >= 128 {
			t.Errorf("Proc.%s at byte %d, want it on the first two cache lines", name, off)
		}
	}
}
