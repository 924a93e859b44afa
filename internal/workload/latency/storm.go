package latency

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

// Storm is the bursty companion to the steady-state Probe in this
// package: instead of independent sleepers trickling awake, a whole cohort
// of waiters blocks on one wait queue and is released at once by a
// synchronized mass wake-up — a thundering herd. The measurement is
// wakeup-to-run latency per waiter per storm: the time from the wake_up_all
// to the instant each woken task actually executes again. The tail of that
// distribution is where scheduler designs separate — the last waiter of a
// storm has waited through every earlier dispatch, so p99 grows with both
// the wake path's cost and the run queue's depth, and a policy whose wake
// path scans the queue (the stock O(n) scheduler) pays the storm size
// twice.
//
// Each storm fires only after every waiter has parked again, so storms
// never overlap and every latency sample is attributable to exactly one
// wake-up. The storm trigger is an engine event, not a task: the herd is
// released by an interrupt, as a completing I/O or expiring timer would.
type StormConfig struct {
	// Waiters is the cohort size woken by each storm (default 64).
	Waiters int
	// Storms is how many mass wake-ups to measure (default 100).
	Storms int
	// IntervalCycles is the quiet gap between full re-park and the next
	// storm (default 2 ms at 400 MHz).
	IntervalCycles uint64
	// WorkPerWake is the burst each waiter runs after waking, before it
	// parks again (default 20k cycles).
	WorkPerWake uint64
	// Hogs is the number of CPU-bound background tasks keeping the run
	// queue populated between storms (default 0: the herd itself is the
	// load).
	Hogs int
}

func (c *StormConfig) withDefaults() StormConfig {
	out := *c
	if out.Waiters == 0 {
		out.Waiters = 64
	}
	if out.Storms == 0 {
		out.Storms = 100
	}
	if out.IntervalCycles == 0 {
		out.IntervalCycles = 800_000 // 2 ms
	}
	if out.WorkPerWake == 0 {
		out.WorkPerWake = 20_000
	}
	return out
}

// Storm is a constructed wake-storm workload.
type Storm struct {
	cfg     StormConfig
	m       *kernel.Machine
	wq      *kernel.WaitQueue
	waiters []*kernel.Proc
	exited  kernel.ExitCursor // over waiters, for Done
	hogs    []*kernel.Proc

	gen     int      // storm sequence number; 0 = before the first storm
	stormAt sim.Time // when the current storm fired
	fired   int      // storms released so far
	parked  int      // waiters currently blocked on wq
	lat     stats.Dist
}

// NewStorm constructs the waiters (and optional hogs) on m.
func NewStorm(m *kernel.Machine, cfg StormConfig) *Storm {
	cfg = cfg.withDefaults()
	s := &Storm{cfg: cfg, m: m, wq: kernel.NewWaitQueue("storm")}
	mm := m.NewMM("herd")
	for i := 0; i < cfg.Waiters; i++ {
		s.waiters = append(s.waiters, m.Spawn(fmt.Sprintf("waiter%d", i), mm, s.newWaiter()))
	}
	for i := 0; i < cfg.Hogs; i++ {
		s.hogs = append(s.hogs, m.Spawn(fmt.Sprintf("hog%d", i), mm, s.newHog()))
	}
	return s
}

// armStorm schedules the next mass wake-up. Called when the last waiter
// parks; guarded so the configured storm count is never exceeded.
func (s *Storm) armStorm() {
	if s.fired >= s.cfg.Storms {
		return
	}
	s.m.Engine().After(s.cfg.IntervalCycles, "storm", func(now sim.Time) {
		s.fired++
		s.gen++
		s.stormAt = now
		s.parked = 0
		s.m.WakeAll(s.wq)
	})
}

// waiter is one herd member: park on the shared queue, and on each
// wake-up record how long the dispatch took, run a small burst, and park
// again — Storms times, then exit.
type waiter struct {
	s      *Storm
	seen   int  // the storm generation this waiter last ran after
	parked bool // counted in s.parked for the current generation
	wakes  int
	phase  int
	burst  kernel.Action // the post-wake Compute, boxed once
}

func (s *Storm) newWaiter() kernel.Program {
	return &waiter{s: s, burst: kernel.Compute{Cycles: s.cfg.WorkPerWake}}
}

func (w *waiter) Step(p *kernel.Proc) kernel.Action {
	switch w.phase {
	case 0: // park until the next storm
		if w.wakes >= w.s.cfg.Storms {
			return kernel.Exit{}
		}
		w.phase = 1
		return p.Call(kernel.Syscall{Cost: 4_000, Exec: execStormWait, Obj: w})
	default: // post-wake burst
		w.wakes++
		w.phase = 0
		return w.burst
	}
}

// execStormWait is the wait syscall's effect; Obj is the waiter.
func execStormWait(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	w := sc.Obj.(*waiter)
	s := w.s
	if w.seen == s.gen {
		if !w.parked {
			w.parked = true
			s.parked++
			if s.parked == s.cfg.Waiters {
				s.armStorm()
			}
		}
		return kernel.BlockOn(s.wq)
	}
	// Woken by storm s.gen and finally running again: the interval since
	// the wake_up_all is the wakeup-to-run latency.
	w.seen = s.gen
	w.parked = false
	s.lat.Observe(uint64(now - s.stormAt))
	return kernel.Done()
}

// newHog burns CPU until the storms are done, keeping the run queue deep
// so woken waiters must compete for dispatch.
func (s *Storm) newHog() kernel.Program {
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if s.Done() {
			return kernel.Exit{}
		}
		return hogBurst
	})
}

// Done reports whether every waiter has finished its storms.
func (s *Storm) Done() bool { return s.exited.AllExited(s.waiters) }

// StormResult is one wake-storm measurement.
type StormResult struct {
	Waiters int
	Storms  int
	Samples uint64  // latency observations (Waiters x Storms when complete)
	Wakes   uint64  // total wake-ups delivered
	Seconds float64 // virtual duration
	Cycles  uint64
	// WakesPerSec is total wake-ups per virtual second — the storm
	// drain rate.
	WakesPerSec float64
	MeanUS      float64 // mean wakeup-to-run latency, microseconds
	P50US       float64 // median
	P99US       float64 // approximate 99th percentile
	MaxUS       float64 // worst observed
}

// Run executes until every waiter completes (or the horizon passes).
func (s *Storm) Run() StormResult {
	start := s.m.Now()
	s.m.Run(func() bool { return s.Done() })
	elapsed := uint64(s.m.Now() - start)
	secs := float64(elapsed) / float64(s.m.Hz())
	toUS := 1e6 / float64(s.m.Hz())
	res := StormResult{
		Waiters: s.cfg.Waiters,
		Storms:  s.cfg.Storms,
		Samples: s.lat.Count(),
		Wakes:   s.lat.Count(),
		Seconds: secs,
		Cycles:  elapsed,
		MeanUS:  s.lat.Mean() * toUS,
		P50US:   float64(s.lat.ApproxPercentile(0.50)) * toUS,
		P99US:   float64(s.lat.ApproxPercentile(0.99)) * toUS,
		MaxUS:   float64(s.lat.Max()) * toUS,
	}
	if secs > 0 {
		res.WakesPerSec = float64(res.Wakes) / secs
	}
	return res
}
