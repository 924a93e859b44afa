// Package latency measures scheduler wake-up latency: how long a just-
// woken interactive task waits before it actually runs, as a function of
// background load. This extends the paper's evaluation along the axis its
// related-work section cares about ("most alternative scheduler designs
// focus on reducing latency for real-time processes rather than improving
// the overall scalability"): the stock scheduler's O(n) scan sits directly
// on the wake-to-dispatch path, so its latency grows with the run queue,
// while ELSC's does not.
package latency

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

// Config sizes the probe workload. Zero fields take the defaults.
type Config struct {
	// Hogs is the number of CPU-bound background tasks keeping the run
	// queue populated (default 32).
	Hogs int
	// WakesPerProbe is how many sleep/wake cycles each probe performs
	// (default 200).
	WakesPerProbe int
	// ProbePriority is the probes' static priority (default 40, the
	// maximum): a woken probe must out-goodness any background hog so
	// that the measurement isolates the wake path — IPI, schedule()
	// cost, context switch — rather than quantum waits.
	ProbePriority int
}

const (
	// probes is the number of interactive latency-probe tasks.
	probes = 4
	// sleepMean is the mean probe sleep between wakes (5 ms).
	sleepMean = 2_000_000
)

// probeBurst is the small burst every probe runs after each wake, boxed
// once.
var probeBurst kernel.Action = kernel.Compute{Cycles: 20_000}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Hogs == 0 {
		out.Hogs = 32
	}
	if out.WakesPerProbe == 0 {
		out.WakesPerProbe = 200
	}
	if out.ProbePriority == 0 {
		out.ProbePriority = 40
	}
	return out
}

// Probe is a constructed latency workload.
type Probe struct {
	cfg  Config
	m    *kernel.Machine
	lat  stats.Dist
	done int
}

// New constructs the probes and background hogs on m.
func New(m *kernel.Machine, cfg Config) *Probe {
	cfg = cfg.withDefaults()
	p := &Probe{cfg: cfg, m: m}

	mm := m.NewMM("bg")
	for i := 0; i < cfg.Hogs; i++ {
		m.Spawn(fmt.Sprintf("hog%d", i), mm, hogProgram(p))
	}
	for i := 0; i < probes; i++ {
		pr := m.Spawn(fmt.Sprintf("probe%d", i), nil, p.probeProgram())
		m.SetPriority(pr, cfg.ProbePriority)
	}
	return p
}

// hogBurst is the hogs' fixed burst, boxed once: a hog steps every
// 150k cycles for the whole run, so a per-step Compute allocation is
// the workload's dominant garbage.
var hogBurst kernel.Action = kernel.Compute{Cycles: 150_000}

// hogProgram burns CPU until the probes are done.
func hogProgram(p *Probe) kernel.Program {
	return kernel.ProgramFunc(func(proc *kernel.Proc) kernel.Action {
		if p.Done() {
			return kernel.Exit{}
		}
		return hogBurst
	})
}

// probeProgram sleeps, records how late it was dispatched after the wake,
// runs a small burst, and repeats.
func (p *Probe) probeProgram() kernel.Program {
	rng := p.m.RNG().Fork()
	wakes := 0
	phase := 0
	var due sim.Time
	sleep := &kernel.Sleep{}
	return kernel.ProgramFunc(func(proc *kernel.Proc) kernel.Action {
		switch phase {
		case 0: // go to sleep
			if wakes >= p.cfg.WakesPerProbe {
				p.done++
				return kernel.Exit{}
			}
			wakes++
			d := rng.Range(sleepMean/2, sleepMean*3/2)
			due = p.m.Now() + sim.Time(d) + sim.Time(p.m.Env().Cost.SyscallBase)
			phase = 1
			sleep.Cycles = d
			return sleep
		default: // just dispatched after the wake
			// How late the dispatch was, clamped at zero.
			p.lat.Observe(uint64(max(p.m.Now(), due) - due))
			phase = 0
			return probeBurst
		}
	})
}

// Done reports whether every probe finished its wake cycles.
func (p *Probe) Done() bool { return p.done >= probes }

// Result is one latency measurement.
type Result struct {
	Probes  int
	Hogs    int
	Samples uint64
	MeanUS  float64 // mean wake-to-dispatch latency, microseconds
	P99US   float64 // approximate 99th percentile, microseconds
	MaxUS   float64 // worst observed latency, microseconds
}

// Run executes until every probe completes.
func (p *Probe) Run() Result {
	p.m.Run(func() bool { return p.Done() })
	toUS := 1e6 / float64(p.m.Hz())
	return Result{
		Probes:  probes,
		Hogs:    p.cfg.Hogs,
		Samples: p.lat.Count(),
		MeanUS:  p.lat.Mean() * toUS,
		P99US:   float64(p.lat.ApproxPercentile(0.99)) * toUS,
		MaxUS:   float64(p.lat.Max()) * toUS,
	}
}
