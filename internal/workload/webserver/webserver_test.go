package webserver

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
		Seed:         5,
		NewScheduler: factory,
		MaxCycles:    600 * kernel.DefaultHz,
	})
}

func small() Config {
	return Config{Workers: 8, Requests: 300, ArrivalPeriod: 60_000}
}

func TestServesAllRequests(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		m := newMachine(1, useELSC)
		s := New(m, small())
		res := s.Run()
		if res.Served != res.Requests {
			t.Fatalf("served %d of %d", res.Served, res.Requests)
		}
		if res.Throughput <= 0 {
			t.Fatal("no throughput")
		}
	}
}

func TestLatencyMeasured(t *testing.T) {
	m := newMachine(2, true)
	s := New(m, small())
	res := s.Run()
	if res.MeanLatMS <= 0 {
		t.Fatal("no latency recorded")
	}
	if res.MaxLatMS < res.MeanLatMS {
		t.Fatal("max latency below mean")
	}
}

func TestThroughputBoundedByOfferedLoad(t *testing.T) {
	m := newMachine(4, true)
	s := New(m, small())
	res := s.Run()
	offered := float64(kernel.DefaultHz) / float64(small().ArrivalPeriod)
	if res.Throughput > offered*1.25 {
		t.Fatalf("throughput %.0f exceeds offered load %.0f", res.Throughput, offered)
	}
}

func TestOverloadDropsOrQueues(t *testing.T) {
	// Offered load far above capacity must still terminate (backlog
	// bounds the queue; the run serves exactly Requests).
	m := newMachine(1, true)
	s := New(m, Config{Workers: 4, Requests: 200, ArrivalPeriod: 5_000})
	res := s.Run()
	if res.Served+res.Dropped != 200 {
		t.Fatalf("served %d + dropped %d, want 200 total", res.Served, res.Dropped)
	}
	if res.Served == 0 {
		t.Fatal("nothing served under overload")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := newMachine(2, true)
		return New(m, small()).Run().Seconds
	}
	if run() != run() {
		t.Fatal("webserver sim not deterministic")
	}
}

func TestMoreWorkersHelpUnderDiskLoad(t *testing.T) {
	// A larger pool overlaps the disk waits of the cache misses: with two
	// workers, one miss stalls half the pool for milliseconds.
	run := func(workers int) float64 {
		m := newMachine(1, true)
		s := New(m, Config{Workers: workers, Requests: 150, ArrivalPeriod: 20_000})
		return s.Run().Throughput
	}
	few, many := run(2), run(32)
	if many <= few {
		t.Fatalf("32 workers (%.0f req/s) should beat 2 workers (%.0f req/s)", many, few)
	}
}
