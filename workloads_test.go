package elsc_test

import (
	"testing"

	"elsc"
)

// TestRunWorkloadRegistry drives every registered workload through the
// public API on a small NUMA machine: the registry promise is that any
// name from Workloads() runs to completion with positive throughput on
// any machine the package can build.
func TestRunWorkloadRegistry(t *testing.T) {
	names := elsc.Workloads()
	if len(names) < 6 {
		t.Fatalf("registry lists %d workloads, want at least 6", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := elsc.NewMachine(elsc.MachineConfig{
				CPUs:         8,
				SMP:          true,
				CacheDomains: 2,
				Scheduler:    elsc.O1,
				Seed:         9,
				MaxSeconds:   600,
			})
			res := m.RunWorkload(name, elsc.WorkloadParams{Work: 3, Quick: true})
			if res.Workload != name {
				t.Fatalf("result stamped %q, want %q", res.Workload, name)
			}
			if !res.Complete {
				t.Fatalf("%s did not complete", name)
			}
			if res.Throughput <= 0 || res.Unit == "" {
				t.Fatalf("%s: throughput %v unit %q", name, res.Throughput, res.Unit)
			}
		})
	}
}

func TestRunWorkloadUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunWorkload with an unknown name should panic")
		}
	}()
	m := elsc.NewMachine(elsc.MachineConfig{})
	m.RunWorkload("memcached", elsc.WorkloadParams{Quick: true})
}

// TestRunDatabasePublic runs the OLTP workload through the public
// registry entry: a small run must commit every transaction and report
// its commit latency.
func TestRunDatabasePublic(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{
		CPUs: 4, SMP: true, Scheduler: elsc.MultiQueue, Seed: 9, MaxSeconds: 600,
	})
	res := m.RunWorkload("db", elsc.WorkloadParams{Work: 15, Quick: true})
	if want := uint64(8 * 15); res.Ops != want { // the quick pool is 8 clients
		t.Fatalf("committed %d, want %d", res.Ops, want)
	}
	if p99, _ := res.Extra("p99_txn_us"); p99 <= 0 {
		t.Fatal("p99 commit latency should be positive")
	}
}

// TestRunWakeStormPublic runs the storm workload through the public
// registry entry: every waiter must observe every storm, and the
// percentiles must be ordered.
func TestRunWakeStormPublic(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{
		CPUs: 4, SMP: true, Scheduler: elsc.Vanilla, Seed: 9, MaxSeconds: 600,
	})
	res := m.RunWorkload("wakestorm", elsc.WorkloadParams{Work: 10, Quick: true})
	if want := uint64(16 * 10); res.Ops != want { // the quick herd is 16 waiters
		t.Fatalf("wakes = %d, want %d", res.Ops, want)
	}
	p50, _ := res.Extra("p50_us")
	p99, _ := res.Extra("p99_us")
	max, _ := res.Extra("max_us")
	if p50 > p99 || p99 > max {
		t.Fatalf("percentiles out of order: %.1f/%.1f/%.1f", p50, p99, max)
	}
}

// TestRunLatencyProbePublic runs the steady-state probes through the
// public registry entry: four probes, each counting every wake.
func TestRunLatencyProbePublic(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 4, SMP: true, Seed: 9, MaxSeconds: 600})
	res := m.RunWorkload("latency", elsc.WorkloadParams{Work: 10})
	if !res.Complete || res.Ops != 40 {
		t.Fatalf("complete=%v samples=%d, want true and 40", res.Complete, res.Ops)
	}
}
