package workload

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
)

func testMachine(cpus int, seed int64) *kernel.Machine {
	return kernel.NewMachine(kernel.Config{
		CPUs: cpus,
		SMP:  cpus > 1,
		Seed: seed,
		NewScheduler: func(env *sched.Env) sched.Scheduler {
			return elsc.New(env)
		},
		MaxCycles: 600 * kernel.DefaultHz,
	})
}

// tinyParams keeps every registry workload small enough for the full
// cross-workload sweep below.
func tinyParams() Params { return Params{Work: 3, Quick: true} }

func TestRegistryNamesUniqueAndComplete(t *testing.T) {
	want := []string{Volano, KBuild, WebServer, Latency, DB, WakeStorm}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d workloads, want %d", len(names), len(want))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n != want[i] {
			t.Fatalf("registry order: got %v, want %v", names, want)
		}
		if seen[n] {
			t.Fatalf("duplicate workload name %q", n)
		}
		seen[n] = true
	}
	for _, w := range Registry {
		if w.Description == "" || w.Build == nil {
			t.Fatalf("workload %q missing description or builder", w.Name)
		}
	}
}

func TestByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ByName on an unknown workload should panic")
		}
	}()
	ByName("memcached")
}

// TestEveryWorkloadRunsAndCompletes is the registry's smoke bar: each
// registered workload, built through the uniform interface on a small
// machine, must finish before the horizon, report positive throughput in
// a named unit, and stamp its own name on the result.
func TestEveryWorkloadRunsAndCompletes(t *testing.T) {
	for _, w := range Registry {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			m := testMachine(2, 11)
			inst := Build(w.Name, m, tinyParams())
			if inst.Done() {
				t.Fatal("workload reports done before running")
			}
			res := inst.Run()
			if res.Workload != w.Name {
				t.Fatalf("result stamped %q, want %q", res.Workload, w.Name)
			}
			if !res.Complete {
				t.Fatalf("%s did not complete before the horizon", w.Name)
			}
			if res.Throughput <= 0 || res.Unit == "" {
				t.Fatalf("%s: throughput %v unit %q", w.Name, res.Throughput, res.Unit)
			}
			if res.Ops == 0 {
				t.Fatalf("%s reported zero operations", w.Name)
			}
			if res.Seconds <= 0 || res.Cycles == 0 {
				t.Fatalf("%s: seconds %v cycles %d", w.Name, res.Seconds, res.Cycles)
			}
			// One measurement for all: the run's exact elapsed cycles
			// (the machine started at zero), their seconds, and Ops
			// over those seconds.
			if res.Cycles != uint64(m.Now()) || res.Seconds != float64(res.Cycles)/float64(m.Hz()) {
				t.Fatalf("%s: %d cycles, %v s for a run that ended at %d", w.Name, res.Cycles, res.Seconds, m.Now())
			}
			if res.Throughput != float64(res.Ops)/res.Seconds {
				t.Fatalf("%s: throughput %v, want ops/seconds %v", w.Name, res.Throughput, float64(res.Ops)/res.Seconds)
			}
		})
	}
}

// TestExtrasOrderedAndQueryable: every workload's extras come back in
// name order (the registry entries list them that way by hand; tables and
// determinism digests depend on the order being fixed) and are reachable
// by name.
func TestExtrasOrderedAndQueryable(t *testing.T) {
	for _, w := range Registry {
		res := w.Build(testMachine(2, 11), tinyParams()).Run()
		if len(res.Extras) == 0 {
			t.Fatalf("%s should report extra metrics", w.Name)
		}
		for i := 1; i < len(res.Extras); i++ {
			if res.Extras[i-1].Name >= res.Extras[i].Name {
				t.Fatalf("%s extras not sorted: %q before %q", w.Name, res.Extras[i-1].Name, res.Extras[i].Name)
			}
		}
		if v, ok := res.Extra(res.Extras[0].Name); !ok || v != res.Extras[0].Value {
			t.Fatalf("%s: Extra(%q) = %v, %v", w.Name, res.Extras[0].Name, v, ok)
		}
		if _, ok := res.Extra("nonexistent"); ok {
			t.Fatal("Extra returned a metric that was never reported")
		}
	}
}

// TestScalableStackParam: the post-2.3 stack must change the socket-bound
// workload's behavior (higher throughput on a multi-CPU machine, where
// the serialized stack is the bottleneck).
func TestScalableStackParam(t *testing.T) {
	run := func(scalable bool) float64 {
		m := testMachine(4, 11)
		p := Params{Work: 4, Quick: true, ScalableStack: scalable}
		return Build(Volano, m, p).Run().Throughput
	}
	serial, scalable := run(false), run(true)
	if scalable <= serial {
		t.Fatalf("scalable stack should raise 4-CPU volano throughput: %.0f vs %.0f",
			serial, scalable)
	}
}
