package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"elsc/internal/workload"
)

// metricDef declares one metric: what BENCHMARK.json lists (name, unit,
// better, and for end-to-end metrics the bound) plus, for the README table
// and the printed report, the end-to-end metric it is predicted to move.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// End-to-end only. bound is BENCHMARK.json's: the contract it is
	// written to takes the metric at ten different seeds in ten separate
	// runs and wants their interquartile spread under a third of the
	// bound, so it covers seed-to-seed and run-to-run movement on a shared
	// host and cannot be tighter than those (README, "Two bounds").
	// regress is ISSUE 11's regression bound, which -compare applies to two
	// result files of the same seed; regressAt overrides it per workload.
	bound     float64
	regress   float64
	regressAt map[string]float64
	// fastest (end-to-end only) makes the reported value the fastest rep
	// instead of the median of the reps: see run_s.
	fastest bool
	moves   string // per-layer only: predicted end-to-end effect
	perRun  bool   // per-layer only: measured on the traced rep of the selected workload
}

// regressBound is the share of A's median by which B may be worse on
// workload before -compare calls it a regression.
func (d metricDef) regressBound(workload string) float64 {
	if b, ok := d.regressAt[workload]; ok {
		return b
	}
	return d.regress
}

// endToEnd are the metrics a user of the simulator sees, each reported
// per workload from untraced reps. All are host-side costs of a fixed
// amount of simulated work, so lower is better everywhere; the two times
// are wall seconds.
//
// run_s is the fastest rep, not the median the issue asked for. The shared
// sizing host only ever slows a rep down — by 5% for minutes, by 1.3-1.7x
// for spells — and ten separate runs of each workload spread by 7-19% in
// their medians but by 3-9% in their fastest reps (README, Noise). The
// median, quartiles and every sample are still reported beside it.
var endToEnd = []metricDef{
	{name: "run_s", unit: "s", better: "lower", bound: 0.25, regress: 0.10, fastest: true,
		regressAt: map[string]float64{"hogs_segments": 0.06, "matrix_quick": 0.06}},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, regress: 0.10},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.25, regress: 0.02},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05, regress: 0.05},
}

// Predictions shared by several declarations.
const (
	movesNone     = "none predicted"
	movesPolicy   = "run_s on volano_paper (about half the run), volano_numa (at most a tenth); hogs_segments no change"
	movesKernel   = "run_s on volano_numa first, then matrix_quick"
	movesSetup    = "setup_s everywhere, run_s nowhere"
	movesOneshot  = "run_s on hogs_segments (up to a quarter of its ns/event)"
	movesTick     = "no end-to-end metric by more than ~3%: ticks are 3% of hogs_segments' events and parked elsewhere"
	movesCount    = "simulated count, exact per seed: moves only when the model or event traffic changes"
	movesMatrix   = "run_s on matrix_quick only"
	movesDiagnose = "diagnostic: ROADMAP's headline intensity, derived from run_s"
)

// perLayer are the single-layer metrics, reported by the traced run.
// Layers are the repo's module names.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		// internal/sim, direct drive.
		{name: "sim.oneshot_ns", unit: "ns", better: "lower", moves: movesOneshot},
		{name: "sim.tick_rearm_ns", unit: "ns", better: "lower", moves: movesTick},
		{name: "sim.cancel_ns", unit: "ns", better: "lower", moves: movesNone},
		{name: "sim.dense_slot_ns", unit: "ns", better: "lower", moves: movesNone},
		{name: "sim.reset_us", unit: "us", better: "lower", moves: movesSetup},
		{name: "sim.allocs_per_event", unit: "count", better: "lower", moves: "alloc_mb everywhere; must read 0"},
		// internal/sim, per workload.
		{name: "sim.events", unit: "count", better: "lower", moves: "run_s on the workload whose events were elided", perRun: true},
		{name: "sim.events_heap", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sim.pending_mean", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sim.recycled_live_mb", unit: "MB", better: "lower", moves: "none (diagnostic): heap live after a cell's Run on the recycled engine, which can still pin the previous cell's machine", perRun: true},

		// internal/sched, decorator spans on the traced rep.
		{name: "sched.schedule_ns", unit: "ns", better: "lower", moves: movesPolicy, perRun: true},
		{name: "sched.schedule_calls", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sched.enqueue_ns", unit: "ns", better: "lower", moves: movesPolicy, perRun: true},
		{name: "sched.enqueue_calls", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sched.dequeue_ns", unit: "ns", better: "lower", moves: movesPolicy, perRun: true},
		{name: "sched.share_pct", unit: "%", better: "lower", moves: movesPolicy, perRun: true},
		{name: "sched.examined_per_call", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sched.recalcs", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sched.steals_intra", unit: "count", better: "lower", moves: movesCount, perRun: true},
		{name: "sched.steals_cross", unit: "count", better: "lower", moves: movesCount, perRun: true},
	}
	// internal/sched, direct drive.
	for _, p := range timedPolicies {
		d = append(d,
			metricDef{name: "sched.pick_ns." + p + ".n16", unit: "ns", better: "lower", moves: movesPolicy},
			metricDef{name: "sched.pick_ns." + p + ".n1024", unit: "ns", better: "lower", moves: movesPolicy},
			metricDef{name: "sched.requeue_ns." + p, unit: "ns", better: "lower", moves: movesPolicy})
	}
	d = append(d,
		// internal/kernel.
		metricDef{name: "kernel.nonpolicy_ns_per_event", unit: "ns", better: "lower", moves: movesKernel, perRun: true},
		metricDef{name: "kernel.null_ns_per_event", unit: "ns", better: "lower", moves: movesKernel},
		metricDef{name: "kernel.boot_us.4P", unit: "us", better: "lower", moves: movesSetup},
		metricDef{name: "kernel.boot_us.32P-NUMA", unit: "us", better: "lower", moves: movesSetup},
		metricDef{name: "kernel.boot_us.64P-NUMA", unit: "us", better: "lower", moves: movesSetup},
		metricDef{name: "kernel.boot_fresh_us.32P-NUMA", unit: "us", better: "lower", moves: movesSetup},
		metricDef{name: "kernel.sched_calls", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.wake_calls", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.ctx_switches", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.migrations", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.preemptions", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.lock_contended", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "kernel.ticks_skipped", unit: "count", better: "higher", moves: movesCount, perRun: true},
		metricDef{name: "kernel.idle_tick_rescues", unit: "count", better: "lower", moves: "must read 0; non-zero fails the cell", perRun: true},
	)
	// internal/workload (ipc has no boundary reachable from outside; it
	// is part of kernel.nonpolicy_ns_per_event).
	for _, w := range workload.Names() {
		d = append(d, metricDef{name: "workload.build_us." + w, unit: "us", better: "lower", moves: movesSetup})
	}
	d = append(d,
		metricDef{name: "workload.steps", unit: "count", better: "lower", moves: movesCount, perRun: true},
		metricDef{name: "workload.steps_per_event", unit: "count", better: "higher", moves: movesCount, perRun: true},
		metricDef{name: "workload.sim_ops_per_s", unit: "1/s", better: "higher", moves: "the modelled design's throughput (simulated ops per simulated second, summed over cells); exact per seed", perRun: true},
		// internal/stats, internal/trace.
		metricDef{name: "stats.observe_ns", unit: "ns", better: "lower", moves: movesKernel},
		metricDef{name: "stats.render_us", unit: "us", better: "lower", moves: movesMatrix},
		metricDef{name: "trace.hook_overhead_pct", unit: "%", better: "lower", moves: "none: the end-to-end workloads run with the hook off"},
		// internal/experiments, cmd/sweep.
		metricDef{name: "experiments.ns_per_event", unit: "ns", better: "lower", moves: movesDiagnose, perRun: true},
		metricDef{name: "experiments.cell_ns_per_event_max", unit: "ns", better: "lower", moves: movesDiagnose, perRun: true},
		metricDef{name: "experiments.parallel_speedup", unit: "x", better: "higher", moves: "none: every end-to-end rep is serial"},
		metricDef{name: "experiments.pool_efficiency", unit: "x", better: "higher", moves: "none: every end-to-end rep is serial"},
		metricDef{name: "sweep.cli_matrix_s", unit: "s", better: "lower", moves: movesMatrix},
		// The benchmark's own measurement quality.
		metricDef{name: "benchmark.trace_overhead_pct", unit: "%", better: "lower", moves: "none: end-to-end metrics come from untraced reps", perRun: true},
		metricDef{name: "benchmark.noise_probe_ms", unit: "ms", better: "lower", moves: "none: the host's speed, not the repo's", perRun: true},
	)
	return d
}

// metricSet holds measured per-layer values by declared name.
type metricSet map[string]float64

// set records a value; an undeclared or repeated name is a bug in the
// benchmark, not a measurement.
func (s metricSet) set(name string, v float64) {
	if _, dup := s[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	for _, d := range perLayer {
		if d.name == name {
			s[name] = v
			return
		}
	}
	panic(fmt.Sprintf("benchmark: undeclared per-layer metric %q", name))
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDeclarations holds BENCHMARK.json to the workload and metric
// declarations in the code, both to the contract's limits, and every
// timing decorator to its policy's method set. It runs at the start of
// every measurement (and in the tests): the benchmark is its own module,
// so the repo's `go test ./...` never compiles it, and a drifted manifest
// or a policy that grew a side interface must stop the next run instead
// of rotting unseen.
func checkDeclarations(root string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	seen := map[string]bool{}
	name := func(name, unit string) {
		if !nameRE.MatchString(name) {
			bad("name %q does not match %v", name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			bad("%s: unit %q does not match %v", name, unit, unitRE)
		}
		if seen[name] {
			bad("name %q is used twice", name)
		}
		seen[name] = true
	}

	if m.RunSeconds != defaultSeconds {
		bad("run_seconds is %d in BENCHMARK.json, %d in the code", m.RunSeconds, defaultSeconds)
	}
	defs := workloads(false)
	if len(defs) != 4 || len(m.Workloads) != len(defs) {
		bad("want 4 workloads in code and manifest, have %d and %d", len(defs), len(m.Workloads))
	}
	for i, d := range defs {
		name(d.name, "")
		if len(d.why) > 200 {
			bad("workload %s: why is %d characters, limit 200", d.name, len(d.why))
		}
		if i < len(m.Workloads) && (m.Workloads[i].Name != d.name || m.Workloads[i].Why != d.why) {
			bad("workload %d: manifest has %+v, code has %q / %q", i, m.Workloads[i], d.name, d.why)
		}
	}
	if len(endToEnd) > 16 || len(m.EndToEnd) != len(endToEnd) {
		bad("end-to-end metrics: %d declared (limit 16), %d in manifest", len(endToEnd), len(m.EndToEnd))
	}
	for i, d := range endToEnd {
		name(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			bad("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if i < len(m.EndToEnd) {
			if got := m.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				bad("end-to-end %d: manifest has %+v, code has %s %s %s %v", i, got, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	if len(perLayer) > 128 || len(m.PerLayer) != len(perLayer) {
		bad("per-layer metrics: %d declared (limit 128), %d in manifest", len(perLayer), len(m.PerLayer))
	}
	for i, d := range perLayer {
		name(d.name, d.unit)
		if d.better != "lower" && d.better != "higher" {
			bad("%s: better is %q", d.name, d.better)
		}
		if i < len(m.PerLayer) {
			if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				bad("per-layer %d: manifest has %+v, code has %s %s %s", i, got, d.name, d.unit, d.better)
			}
		}
	}
	errs = append(errs, checkDecorators())
	return errors.Join(errs...)
}
