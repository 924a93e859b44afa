package latency

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
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
			st := NewStorm(stormMachine(cpus, useO1, 13), smallStorm())
			res := st.Run()
			if !st.Done() {
				t.Fatalf("cpus=%d o1=%v: storm workload did not complete", cpus, useO1)
			}
			if want := uint64(8 * 10); res.Samples != want {
				t.Fatalf("cpus=%d o1=%v: samples = %d, want %d", cpus, useO1, res.Samples, want)
			}
		}
	}
}

func TestStormLatencyShape(t *testing.T) {
	res := NewStorm(stormMachine(2, false, 13), StormConfig{Waiters: 16, Storms: 20}).Run()
	if res.MeanUS <= 0 {
		t.Fatalf("mean wakeup-to-run latency %.2fus; the wake path costs cycles", res.MeanUS)
	}
	if res.P50US > res.P99US || res.P99US > res.MaxUS {
		t.Fatalf("percentiles out of order: p50=%.1f p99=%.1f max=%.1f",
			res.P50US, res.P99US, res.MaxUS)
	}
	if res.WakesPerSec <= 0 {
		t.Fatal("wake throughput should be positive")
	}
}

// TestStormTailGrowsWithHerd: the last waiter of a bigger herd waits
// through more dispatches, so p99 must grow with the cohort size on a
// fixed machine.
func TestStormTailGrowsWithHerd(t *testing.T) {
	run := func(waiters int) float64 {
		return NewStorm(stormMachine(2, false, 13),
			StormConfig{Waiters: waiters, Storms: 15}).Run().P99US
	}
	small, big := run(4), run(64)
	if big <= small {
		t.Fatalf("p99 should grow with herd size: %.1fus at 4 waiters vs %.1fus at 64", small, big)
	}
}

func TestStormHogsDeepenQueue(t *testing.T) {
	run := func(hogs int) float64 {
		return NewStorm(stormMachine(1, false, 13),
			StormConfig{Waiters: 8, Storms: 15, Hogs: hogs}).Run().MeanUS
	}
	quiet, loaded := run(0), run(32)
	if loaded <= quiet {
		t.Fatalf("mean latency should grow under hog load: %.1fus vs %.1fus", quiet, loaded)
	}
}

func TestStormDeterministic(t *testing.T) {
	run := func() StormResult {
		return NewStorm(stormMachine(4, true, 13), smallStorm()).Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("storm workload not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
