package kbuild

import (
	"strings"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/vanilla"
	"elsc/internal/stats"
)

func newMachine(cpus int, smp bool, useELSC bool) *kernel.Machine {
	factory := func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
	if useELSC {
		factory = func(env *sched.Env) sched.Scheduler { return elsc.New(env) }
	}
	return kernel.NewMachine(kernel.Config{
		CPUs:         cpus,
		SMP:          smp,
		Seed:         99,
		NewScheduler: factory,
		MaxCycles:    3000 * kernel.DefaultHz,
	})
}

// runSeconds drives m until done holds or the horizon passes, and
// returns the elapsed virtual seconds (test machines start at time zero).
func runSeconds(m *kernel.Machine, done func() bool) float64 {
	m.Run(done)
	return float64(m.Now()) / float64(m.Hz())
}

// small is a fast test configuration.
func small() Config {
	return Config{Units: 24, MeanCompile: 4_000_000, MeanIO: 100_000}
}

func TestBuildCompletes(t *testing.T) {
	for _, useELSC := range []bool{false, true} {
		m := newMachine(1, false, useELSC)
		b := New(m, small())
		secs := runSeconds(m, b.Done)
		if !b.Done() {
			t.Fatal("build did not finish")
		}
		if secs <= 0 {
			t.Fatal("no elapsed time")
		}
		workers := 0
		for _, p := range m.Procs() {
			if strings.HasPrefix(p.Task.Name, "cc/") {
				workers++
			}
		}
		if c := b.Config(); c.Units != 24 || workers != 4 {
			t.Fatalf("config echo wrong: %+v with %d workers", c, workers)
		}
	}
}

func TestAllUnitsCompiled(t *testing.T) {
	m := newMachine(2, true, true)
	b := New(m, small())
	m.Run(b.Done)
	if b.compiled != len(b.queue) {
		t.Fatalf("compiled %d of %d units", b.compiled, len(b.queue))
	}
	if b.nextJob != len(b.queue) {
		t.Fatalf("claimed %d of %d units", b.nextJob, len(b.queue))
	}
}

func TestTwoProcessorSpeedup(t *testing.T) {
	// Table 2's structure: 2P cuts the time nearly in half
	// (6:41 -> 3:40 is a 1.82x speedup with the serial tail).
	run := func(cpus int, smp bool) float64 {
		m := newMachine(cpus, smp, true)
		return runSeconds(m, New(m, small()).Done)
	}
	up := run(1, false)
	dual := run(2, true)
	speedup := up / dual
	if speedup < 1.4 || speedup > 2.05 {
		t.Fatalf("2P speedup = %.2f, want roughly 1.8 (Amdahl with ~10%% serial)", speedup)
	}
}

func TestSchedulersAgreeOnLightLoad(t *testing.T) {
	// The Table 2 claim: for light loads the two schedulers are within
	// noise of each other.
	run := func(useELSC bool) float64 {
		m := newMachine(1, false, useELSC)
		return runSeconds(m, New(m, small()).Done)
	}
	reg := run(false)
	elscT := run(true)
	diff := (reg - elscT) / reg
	if diff < -0.03 || diff > 0.05 {
		t.Fatalf("light-load times diverge: reg %.3fs vs elsc %.3fs (%.1f%%)",
			reg, elscT, 100*diff)
	}
}

func TestParallelismBounded(t *testing.T) {
	// make -j4 must never have more than 4 compilers (plus the linker)
	// runnable: the scheduler sees a light load. The machine's task table
	// is sampled at every schedule() decision.
	var m *kernel.Machine
	decisions, runnable, peak := 0, 0, 0
	m = kernel.NewMachine(kernel.Config{
		CPUs: 4, SMP: true, Seed: 99, MaxCycles: 3000 * kernel.DefaultHz,
		NewScheduler: func(env *sched.Env) sched.Scheduler { return vanilla.New(env) },
		Trace: func(kernel.TraceEvent) {
			n := 0
			for _, p := range m.Procs() {
				if p.Task.Runnable() {
					n++
				}
			}
			decisions++
			runnable += n
			peak = max(peak, n)
		},
	})
	b := New(m, small())
	m.Run(b.Done)
	mean := float64(runnable) / float64(decisions)
	if peak > Jobs+1 || mean > float64(Jobs)+0.5 {
		t.Fatalf("runnable tasks: mean %.2f, peak %d; -j%d allows %d compilers plus the linker",
			mean, peak, Jobs, Jobs)
	}
}

func TestFormattedDuration(t *testing.T) {
	m := newMachine(1, false, true)
	m.Run(New(m, small()).Done)
	if f := stats.FormatDuration(uint64(m.Now()), m.Hz()); f == "" || f == "0:00.00" {
		t.Fatalf("formatted duration %q", f)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() uint64 {
		m := newMachine(2, true, true)
		m.Run(New(m, small()).Done)
		return uint64(m.Now())
	}
	if run() != run() {
		t.Fatal("kernel build simulation not deterministic")
	}
}
