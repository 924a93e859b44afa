package experiments

import (
	"strings"
	"testing"

	"elsc/internal/workload"
)

// TestInteractivityFixesLatencyCollapse is the acceptance regression for
// the interactivity work: on the 32P-NUMA latency matrix cell (quick
// scale, fixed seed), o1's wakeup-to-run p99 with the machinery on must
// improve at least 5x over the InteractivityOff ablation and land within
// 3x of reg's p99. This pins the ROADMAP's "latency column collapses
// under o1" gap shut: the probe that used to wait out a hog quantum now
// preempts via its sleep_avg bonus.
func TestInteractivityFixesLatencyCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("three full 32P runs")
	}
	spec := SpecByLabel("32P-NUMA")
	sc := Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true}

	on := RunCell(nil, interactivityArms[0].on(Load(workload.Latency), spec), sc)
	off := RunCell(nil, interactivityArms[1].on(Load(workload.Latency), spec), sc)
	reg := RunCell(nil, Load(workload.Latency).On(spec, Reg), sc)
	for _, r := range []WorkloadRun{on, off, reg} {
		if !r.Result.Complete || r.Result.Ops == 0 {
			t.Fatalf("%s run incomplete", r.Key())
		}
	}
	onP99, _ := on.Result.Extra("p99_us")
	offP99, _ := off.Result.Extra("p99_us")
	regP99, _ := reg.Result.Extra("p99_us")
	if onP99 <= 0 || offP99 <= 0 || regP99 <= 0 {
		t.Fatalf("degenerate p99s: on=%v off=%v reg=%v", onP99, offP99, regP99)
	}
	if offP99 < 5*onP99 {
		t.Fatalf("interactivity on p99 %.1fus not >=5x better than off %.1fus (ratio %.1f)",
			onP99, offP99, offP99/onP99)
	}
	if onP99 > 3*regP99 {
		t.Fatalf("o1 p99 %.1fus not within 3x of reg's %.1fus", onP99, regP99)
	}
	// The mechanism must be visible, not incidental: the interactive arm
	// granted active-array requeues or higher-bonus enqueues.
	if len(on.BonusLevels) == 0 {
		t.Fatal("o1 run did not expose its bonus counters")
	}
	var plus uint64
	for b, n := range on.BonusLevels {
		if b > len(on.BonusLevels)/2 {
			plus += n
		}
	}
	if plus == 0 {
		t.Fatal("no positive-bonus enqueues: the estimator never classified the probes")
	}
}

// TestAblateInteractivityRenders keeps the ablation table wired: two
// arms, the estimator columns present, and the interactive arm strictly
// better on the latency tail.
func TestAblateInteractivityRenders(t *testing.T) {
	tab := AblateInteractivity(SpecByLabel("32P-NUMA")).Run(
		Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true})
	out := tab.Render()
	if tab.NumRows() != 2 {
		t.Fatalf("ablation rows = %d, want 2", tab.NumRows())
	}
	for _, want := range []string{"interactive", "interactivity-off", "lat p99 us", "wake-idle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation table missing %q:\n%s", want, out)
		}
	}
}
