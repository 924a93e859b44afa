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

// runSeconds drives m until done holds or the horizon passes, and
// returns the elapsed virtual seconds (test machines start at time zero).
func runSeconds(m *kernel.Machine, done func() bool) float64 {
	m.Run(done)
	return float64(m.Now()) / float64(m.Hz())
}

func small() Config {
	return Config{Workers: 8, Requests: 300, ArrivalPeriod: 60_000}
}

func TestServesAllRequests(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		m := newMachine(1, useELSC)
		s := New(m, small())
		secs := runSeconds(m, s.Done)
		if s.served != s.cfg.Requests {
			t.Fatalf("served %d of %d", s.served, s.cfg.Requests)
		}
		if !(float64(s.served)/secs > 0) {
			t.Fatal("no throughput")
		}
	}
}

func TestLatencyMeasured(t *testing.T) {
	m := newMachine(2, true)
	s := New(m, small())
	m.Run(s.Done)
	lat := s.Latency()
	if lat.Mean() <= 0 {
		t.Fatal("no latency recorded")
	}
	if float64(lat.Max()) < lat.Mean() {
		t.Fatal("max latency below mean")
	}
}

func TestThroughputBoundedByOfferedLoad(t *testing.T) {
	m := newMachine(4, true)
	s := New(m, small())
	secs := runSeconds(m, s.Done)
	throughput := float64(s.served) / secs
	offered := float64(kernel.DefaultHz) / float64(small().ArrivalPeriod)
	if throughput > offered*1.25 {
		t.Fatalf("throughput %.0f exceeds offered load %.0f", throughput, offered)
	}
}

func TestOverloadDropsOrQueues(t *testing.T) {
	// Offered load far above capacity must still terminate (backlog
	// bounds the queue; the run serves exactly Requests).
	m := newMachine(1, true)
	s := New(m, Config{Workers: 4, Requests: 200, ArrivalPeriod: 5_000})
	m.Run(s.Done)
	if s.served+s.Dropped() != 200 {
		t.Fatalf("served %d + dropped %d, want 200 total", s.served, s.Dropped())
	}
	if s.served == 0 {
		t.Fatal("nothing served under overload")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		m := newMachine(2, true)
		return runSeconds(m, New(m, small()).Done)
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
		secs := runSeconds(m, s.Done)
		return float64(s.served) / secs
	}
	few, many := run(2), run(32)
	if many <= few {
		t.Fatalf("32 workers (%.0f req/s) should beat 2 workers (%.0f req/s)", many, few)
	}
}
