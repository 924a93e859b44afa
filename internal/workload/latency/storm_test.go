package latency

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

func stormMachine(cpus int, useO1 bool, seed int64) *kernel.Machine {
	m := newMachine(cpus, !useO1)
	if useO1 {
		m = kernel.NewMachine(kernel.Config{
			CPUs: cpus,
			SMP:  cpus > 1,
			Seed: seed,
			NewScheduler: func(env *sched.Env) sched.Scheduler {
				return o1.New(env)
			},
			MaxCycles: 300 * kernel.DefaultHz,
		})
	}
	return m
}

func smallStorm() StormConfig {
	return StormConfig{Waiters: 8, Storms: 10}
}

// TestStormEverySampleObserved is the completeness bar: every waiter must
// record exactly one latency sample per storm — a lost wake-up or an
// overlapping storm would change the count.
func TestStormEverySampleObserved(t *testing.T) {
	for _, cpus := range []int{1, 2, 4} {
		for _, useO1 := range []bool{false, true} {
			m := stormMachine(cpus, useO1, 13)
			st := NewStorm(m, smallStorm())
			m.Run(st.Done)
			if !st.Done() {
				t.Fatalf("cpus=%d o1=%v: storm workload did not complete", cpus, useO1)
			}
			if want, n := uint64(8*10), st.Latency().Count(); n != want {
				t.Fatalf("cpus=%d o1=%v: samples = %d, want %d", cpus, useO1, n, want)
			}
		}
	}
}

func TestStormLatencyShape(t *testing.T) {
	m := stormMachine(2, false, 13)
	st := NewStorm(m, StormConfig{Waiters: 16, Storms: 20})
	secs := runSeconds(m, st.Done)
	lat := st.Latency()
	if lat.Mean() <= 0 {
		t.Fatalf("mean wakeup-to-run latency %.0f cycles; the wake path costs cycles", lat.Mean())
	}
	if p50, p99 := lat.ApproxPercentile(0.50), lat.ApproxPercentile(0.99); p50 > p99 || p99 > lat.Max() {
		t.Fatalf("percentiles out of order: p50=%d p99=%d max=%d cycles", p50, p99, lat.Max())
	}
	if !(float64(lat.Count())/secs > 0) {
		t.Fatal("wake throughput should be positive")
	}
}

// TestStormTailGrowsWithHerd: the last waiter of a bigger herd waits
// through more dispatches, so p99 must grow with the cohort size on a
// fixed machine.
func TestStormTailGrowsWithHerd(t *testing.T) {
	run := func(waiters int) uint64 {
		m := stormMachine(2, false, 13)
		st := NewStorm(m, StormConfig{Waiters: waiters, Storms: 15})
		m.Run(st.Done)
		return st.Latency().ApproxPercentile(0.99)
	}
	small, big := run(4), run(64)
	if big <= small {
		t.Fatalf("p99 should grow with herd size: %d cycles at 4 waiters vs %d at 64", small, big)
	}
}

func TestStormDeterministic(t *testing.T) {
	// The whole latency histogram and the run's end instant.
	type outcome struct {
		lat stats.Dist
		end sim.Time
	}
	run := func() outcome {
		m := stormMachine(4, true, 13)
		st := NewStorm(m, smallStorm())
		m.Run(st.Done)
		return outcome{*st.Latency(), m.Now()}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("storm workload not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
