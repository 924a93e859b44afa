package latency

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
		Seed:         13,
		NewScheduler: factory,
		MaxCycles:    300 * kernel.DefaultHz,
	})
}

// runSeconds drives m until done holds or the horizon passes, and
// returns the elapsed virtual seconds (test machines start at time zero).
func runSeconds(m *kernel.Machine, done func() bool) float64 {
	m.Run(done)
	return float64(m.Now()) / float64(m.Hz())
}

// meanLatency runs p on m and returns its mean wake latency in cycles.
func meanLatency(m *kernel.Machine, p *Probe) float64 {
	m.Run(p.Done)
	return p.Latency().Mean()
}

func small() Config {
	return Config{Hogs: 8, WakesPerProbe: 30}
}

func TestProbesComplete(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		m := newMachine(1, useELSC)
		p := New(m, small())
		m.Run(p.Done)
		if !p.Done() {
			t.Fatal("probes did not finish")
		}
		if n := p.Latency().Count(); n != uint64(probes*30) {
			t.Fatalf("samples = %d, want %d", n, probes*30)
		}
	}
}

func TestLatencyPositiveUnderLoad(t *testing.T) {
	m := newMachine(1, false)
	p := New(m, small())
	m.Run(p.Done)
	lat := p.Latency()
	if lat.Mean() <= 0 {
		t.Fatalf("mean latency %.0f cycles; wake path should cost something", lat.Mean())
	}
	if float64(lat.Max()) < lat.Mean() {
		t.Fatal("max below mean")
	}
}

func TestMoreHogsMoreRegLatency(t *testing.T) {
	// The stock scheduler's wake latency grows with the run queue.
	run := func(hogs int) float64 {
		m := newMachine(1, false)
		return meanLatency(m, New(m, Config{Hogs: hogs, WakesPerProbe: 40}))
	}
	light, heavy := run(4), run(64)
	if heavy <= light {
		t.Fatalf("reg latency should grow with load: %.0f cycles at 4 hogs vs %.0f at 64", light, heavy)
	}
}

func TestELSCLatencyBeatsRegUnderLoad(t *testing.T) {
	run := func(useELSC bool) float64 {
		m := newMachine(1, useELSC)
		return meanLatency(m, New(m, Config{Hogs: 64, WakesPerProbe: 40}))
	}
	reg, el := run(false), run(true)
	if el >= reg {
		t.Fatalf("elsc mean latency %.0f cycles should beat reg %.0f with 64 hogs", el, reg)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := newMachine(2, true)
		return meanLatency(m, New(m, small()))
	}
	if run() != run() {
		t.Fatal("latency workload not deterministic")
	}
}
