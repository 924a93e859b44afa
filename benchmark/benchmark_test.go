package main

import (
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sim"
	"elsc/internal/workload"
)

// TestDeclarations holds BENCHMARK.json to the metric and workload
// declarations in the code, both to the contract's limits, and every
// timing decorator to its policy's exported method set — the checks every
// measurement starts with.
func TestDeclarations(t *testing.T) {
	if err := checkDeclarations(".."); err != nil {
		t.Error(err)
	}
}

// TestDecoratedCellsDigestIdentically checks, per policy, that a decorated
// cell simulates exactly what a bare one does and that the decorator sees
// every Schedule call.
func TestDecoratedCellsDigestIdentically(t *testing.T) {
	for _, policy := range timedPolicies {
		quick := experiments.QuickScale()
		eng := new(sim.Engine)
		for _, load := range []string{workload.Volano, workload.WakeStorm} {
			c := cell{load, policy, experiments.SpecByLabel("32P-NUMA"), quick}
			plain := runCell(eng, c, 42, runOpts{})
			pt := &policyTimer{eng: eng}
			wrapped := runCell(eng, c, 42, runOpts{timer: pt})
			if plain.digest != wrapped.digest {
				t.Errorf("%s: decorated cell digests %s, bare cell %s", c.key(), wrapped.digest, plain.digest)
			}
			if pt.calls[opSchedule] != wrapped.stats.SchedCalls {
				t.Errorf("%s: decorator saw %d Schedule calls, kernel counted %d", c.key(), pt.calls[opSchedule], wrapped.stats.SchedCalls)
			}
		}
	}
}

// TestSmoke runs the whole benchmark at 1/50 of its work with the traced
// round on: every declared metric must be reported for every workload,
// no operation may fail, and matrix_quick must reproduce the committed
// BENCH_sweep.json.
func TestSmoke(t *testing.T) {
	o := options{seed: baselineSeed, smoke: true, trace: true}
	rep, spans, err := measure(o, "..", workloads(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans.spans) == 0 {
		t.Error("traced round recorded no spans")
	}
	for _, w := range rep.Workloads {
		if w.OpsAttempted == 0 || w.OpsFailed != 0 {
			t.Errorf("%s: %d operations attempted, %d failed: %v", w.Name, w.OpsAttempted, w.OpsFailed, w.Failures)
		}
		if len(w.SimChanged) != 0 {
			t.Errorf("%s: simulation differs from the committed reference: %v", w.Name, w.SimChanged)
		}
		for _, d := range endToEnd {
			if s, ok := w.EndToEnd[d.name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is missing or not positive", w.Name, d.name)
			}
		}
		for _, d := range perLayer {
			_, perRun := w.PerLayer[d.name]
			_, direct := rep.PerLayer[d.name]
			if perRun == direct {
				t.Errorf("%s: per-layer metric %s reported %v per run, %v direct; want exactly one", w.Name, d.name, perRun, direct)
			}
			if perRun != d.perRun {
				t.Errorf("%s: %s declared perRun=%v but reported perRun=%v", w.Name, d.name, d.perRun, perRun)
			}
		}
		if v := w.PerLayer["kernel.idle_tick_rescues"]; v != 0 {
			t.Errorf("%s: kernel.idle_tick_rescues = %v, want 0", w.Name, v)
		}
	}
	if v := rep.PerLayer["sim.allocs_per_event"]; v != 0 {
		t.Errorf("sim.allocs_per_event = %v, want 0", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	s := func(xs ...float64) summary { return summarize(metricDef{unit: "s"}, xs) }
	cases := []struct {
		a, b summary
		want string
	}{
		{s(1.00, 1.01, 1.02), s(1.01, 1.02, 1.03), "same"},
		{s(1.00, 1.01, 1.02), s(1.20, 1.21, 1.22), "worse"},
		{s(1.00, 1.01, 1.02), s(0.80, 0.81, 0.82), "better"},
		{s(1.00, 1.30, 1.60), s(1.10, 1.20, 1.50), "unresolved"},
		// Wide spread but every B sample beats every A sample: resolved.
		{s(1.00, 1.30, 1.60), s(0.50, 0.60, 0.90), "better"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.Samples, c.b.Samples, got, c.want)
		}
	}
}

// TestRoundsComeFromTheCommandLine pins the rep counts the README states:
// -seconds is divided by the sized rep cost, never by a clock.
func TestRoundsComeFromTheCommandLine(t *testing.T) {
	defs := workloads(false)
	for i, want := range []int{3, 7, 6, 8} {
		if got := rounds(options{seconds: defaultSeconds}, defs[i:i+1]); got != want {
			t.Errorf("%s at %d s: %d rounds, want %d", defs[i].name, defaultSeconds, got, want)
		}
	}
	if got := rounds(options{seconds: defaultSeconds}, defs); got != 5 {
		t.Errorf("all four interleaved at %d s: %d rounds, want 5", defaultSeconds, got)
	}
	if got := rounds(options{seconds: 1}, defs[:1]); got != minRounds {
		t.Errorf("1 s: %d rounds, want the minimum %d", got, minRounds)
	}
	if got := rounds(options{seconds: defaultSeconds, reps: 9}, defs); got != 9 {
		t.Errorf("-reps 9: %d rounds", got)
	}
}
