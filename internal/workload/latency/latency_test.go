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

func small() Config {
	return Config{Hogs: 8, WakesPerProbe: 30}
}

func TestProbesComplete(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		m := newMachine(1, useELSC)
		p := New(m, small())
		res := p.Run()
		if !p.Done() {
			t.Fatal("probes did not finish")
		}
		if res.Samples != uint64(probes*30) {
			t.Fatalf("samples = %d, want %d", res.Samples, probes*30)
		}
	}
}

func TestLatencyPositiveUnderLoad(t *testing.T) {
	m := newMachine(1, false)
	res := New(m, small()).Run()
	if res.MeanUS <= 0 {
		t.Fatalf("mean latency %.2fus; wake path should cost something", res.MeanUS)
	}
	if res.MaxUS < res.MeanUS {
		t.Fatal("max below mean")
	}
}

func TestMoreHogsMoreRegLatency(t *testing.T) {
	// The stock scheduler's wake latency grows with the run queue.
	run := func(hogs int) float64 {
		m := newMachine(1, false)
		return New(m, Config{Hogs: hogs, WakesPerProbe: 40}).Run().MeanUS
	}
	light, heavy := run(4), run(64)
	if heavy <= light {
		t.Fatalf("reg latency should grow with load: %.1fus at 4 hogs vs %.1fus at 64", light, heavy)
	}
}

func TestELSCLatencyBeatsRegUnderLoad(t *testing.T) {
	run := func(useELSC bool) float64 {
		m := newMachine(1, useELSC)
		return New(m, Config{Hogs: 64, WakesPerProbe: 40}).Run().MeanUS
	}
	reg, el := run(false), run(true)
	if el >= reg {
		t.Fatalf("elsc mean latency %.1fus should beat reg %.1fus with 64 hogs", el, reg)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := newMachine(2, true)
		return New(m, small()).Run().MeanUS
	}
	if run() != run() {
		t.Fatal("latency workload not deterministic")
	}
}
