package conformance

import (
	"fmt"
	"math"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// The cross-policy latency invariant suite. Where the contract tests
// above pin *what* gets scheduled, these pin *when*: wakeup-to-run
// latency under load, the axis PR 3's matrix exposed as the widest gap
// between policies. Both invariants run the registry workloads at a
// fixed seed on every spec in latencySpecs for every registered policy,
// so a new policy inherits them the moment it joins the experiments
// policy table, which also states its budget.

// latencySpecs are the machines the invariants run on: the flat 8P spec
// and both NUMA hierarchies.
var latencySpecs = []string{"8P", "32P-NUMA", "64P-NUMA"}

// latencyScale fixes the invariant runs: quick shapes, seed 42, enough
// wakes for a stable tail.
func latencyScale() experiments.Scale {
	return experiments.Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true, TicklessOff: ticklessOff()}
}

// hogQuantumUS is one full quantum of a default-priority hog in
// microseconds: counter recharges to Priority ticks of 10 ms.
const hogQuantumUS = task.DefaultPriority * 10_000

// The per-policy budgets for invariant (a) — the worst observed
// wakeup-to-run latency of a blocked-then-woken probe, as a fraction of a
// default hog's full quantum — live in the experiments policy table
// (experiments.LatencyBudget): the invariant every policy must meet is two full
// quanta, and policies whose designs promise better are held to it. The
// stock scanner and the heap preempt via goodness within a few scheduler
// hops; o1's interactivity machinery (sleep_avg bonus + TASK_PREEMPTS_CURR
// + tick preemption) pins the probe to microseconds. ELSC and mq have no
// latency story at equal static priorities (their probes can wait out a
// hog quantum on one queue), so they carry the base budget.
func latencyBudget(policy string) float64 {
	return experiments.LatencyBudget(policy)
}

// TestLatencyInvariantProbeBeatsHogQuanta is invariant (a): on every
// spec, a blocked-then-woken probe at the same static priority as the
// hogs runs before any hog completes two full quanta — scaled down per
// the policy table for policies that promise better.
func TestLatencyInvariantProbeBeatsHogQuanta(t *testing.T) {
	for _, label := range latencySpecs {
		for _, policy := range experiments.Policies {
			label, policy := label, policy
			t.Run(fmt.Sprintf("%s/%s", label, policy), func(t *testing.T) {
				t.Parallel()
				r := experiments.RunCell(nil, experiments.Load(workload.Latency).On(experiments.SpecByLabel(label), policy), latencyScale())
				if !r.Result.Complete || r.Result.Ops == 0 {
					t.Fatalf("latency run incomplete (ops=%d)", r.Result.Ops)
				}
				maxUS, ok := r.Result.Extra("max_us")
				if !ok {
					t.Fatal("latency result lost its max_us extra")
				}
				budget := latencyBudget(policy) * hogQuantumUS
				if maxUS >= budget {
					t.Fatalf("worst wakeup-to-run %.1fus exceeds the %s budget of %.0fus (%.3g hog quanta)",
						maxUS, policy, budget, latencyBudget(policy))
				}
			})
		}
	}
}

// TestLatencyInvariantWakeStormTail is invariant (b): on every spec, the
// wake-storm percentiles are finite, positive, and monotone
// (p50 <= p99 <= max), and no wake-up is lost — the reported sample
// count is exactly waiters x storms.
func TestLatencyInvariantWakeStormTail(t *testing.T) {
	for _, label := range latencySpecs {
		for _, policy := range experiments.Policies {
			label, policy := label, policy
			t.Run(fmt.Sprintf("%s/%s", label, policy), func(t *testing.T) {
				t.Parallel()
				sc := latencyScale()
				r := experiments.RunCell(nil, experiments.Load(workload.WakeStorm).On(experiments.SpecByLabel(label), policy), sc)
				if !r.Result.Complete {
					t.Fatal("wake storm did not complete")
				}
				waiters, _ := r.Result.Extra("waiters")
				storms, _ := r.Result.Extra("storms")
				if want := uint64(waiters * storms); r.Result.Ops != want {
					t.Fatalf("lost wake-ups: %d samples, want %d (%v waiters x %v storms)",
						r.Result.Ops, want, waiters, storms)
				}
				p50, _ := r.Result.Extra("p50_us")
				p99, _ := r.Result.Extra("p99_us")
				maxUS, _ := r.Result.Extra("max_us")
				for name, v := range map[string]float64{"p50_us": p50, "p99_us": p99, "max_us": maxUS} {
					if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
						t.Fatalf("%s = %v, want finite and positive", name, v)
					}
				}
				if !(p50 <= p99 && p99 <= maxUS) {
					t.Fatalf("percentiles not monotone: p50=%.1f p99=%.1f max=%.1f", p50, p99, maxUS)
				}
			})
		}
	}
}
