package experiments

import (
	"fmt"

	"elsc/internal/sched/o1"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// The interactivity experiments: measure what the o1 scheduler's
// sleep_avg machinery (dynamic-priority bonus, active-array requeue,
// tick preemption, TIMESLICE_GRANULARITY chunking) and SD_WAKE_IDLE
// placement buy on the latency-sensitive workloads — the matrix column
// PR 3 exposed as o1's fidelity gap, where quantum-expired probes parked
// behind a full hog quantum in the expired array.

// interactivityArms are o1 with the full machinery, and with both halves
// disabled (the pre-interactivity scheduler, kept as the baseline).
var interactivityArms = []o1Arm{
	{"interactive", o1.Config{}},
	{"interactivity-off", o1.Config{InteractivityOff: true}},
}

// AblateInteractivity isolates the interactivity machinery on one spec:
// the same o1 scheduler with and without it, racing the two
// latency-sensitive registry workloads. The latency columns are the
// headline — with the machinery off, a probe at the hogs' static
// priority waits out hog quanta; with it on, the sleep_avg bonus
// preempts within microseconds — and the estimator columns show the
// mechanism at work (bonus spread, active-array requeues, wake-idle
// placements). Cells are each arm's latency cell, then its wakestorm one.
func AblateInteractivity(spec MachineSpec) Experiment {
	latency, storm := Load(workload.Latency), Load(workload.WakeStorm)
	var cells []Cell
	for _, arm := range interactivityArms {
		cells = append(cells, arm.on(latency, spec), arm.on(storm, spec))
	}
	return Experiment{Name: "interactive", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("Ablation: o1 interactivity (%s)", spec.Label),
			"o1 variant", "lat p99 us", "lat max us", "storm p99 us",
			"+bonus enq", "-bonus enq", "requeues", "wake-idle", "tick-preempt", "rotations")
		for _, arm := range interactivityArms {
			lat, storm := FindRun(runs, arm.on(latency, spec)), FindRun(runs, arm.on(storm, spec))
			latP99, _ := lat.Result.Extra("p99_us")
			latMax, _ := lat.Result.Extra("max_us")
			stormP99, _ := storm.Result.Extra("p99_us")
			var plus, minus uint64
			for b, n := range lat.BonusLevels {
				if b > o1.BonusSpan/2 {
					plus += n
				} else if b < o1.BonusSpan/2 {
					minus += n
				}
			}
			t.AddRow(arm.label,
				int(latP99), int(latMax), int(stormP99),
				plus, minus, lat.InteractiveRequeues,
				lat.Stats.WakeIdlePlacements+storm.Stats.WakeIdlePlacements,
				lat.Stats.TickPreemptions+storm.Stats.TickPreemptions,
				lat.Stats.TimesliceRotations+storm.Stats.TimesliceRotations)
		}
		return t
	}}
}
