package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/workload"
)

// cell is one simulation: a registry workload under one policy on one
// machine spec, sized by scale (whose Seed the run overrides).
type cell struct {
	load   string
	policy string
	spec   experiments.MachineSpec
	scale  experiments.Scale
}

// key renders the "volano-o1-32P-NUMA" identifier BENCH_sweep.json uses.
func (c cell) key() string { return c.load + "-" + c.policy + "-" + c.spec.Label }

// workloadDef is one benchmark workload: a fixed list of cells, all run
// once per rep on one recycled engine by one goroutine.
type workloadDef struct {
	name  string
	why   string
	cells []cell
	// repSeconds is what one rep was sized to cost on the sizing host. It
	// only turns -seconds into a count of timed rounds (see rounds).
	repSeconds float64
}

// smokeDivisor shrinks every workload's work for `go test` (-smoke).
const smokeDivisor = 50

// matrixPasses repeats the 60-cell quick matrix so a rep lasts seconds,
// not the 0.15 s one pass takes.
const matrixPasses = 16

// quickMatrixScale and quickMatrixSpecs are what `sweep -quick -exp
// matrix` runs by default: QuickScale at 30 messages on these two specs.
func quickMatrixScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Messages = 30
	return sc
}

var quickMatrixSpecs = []string{"8P", "32P-NUMA"}

// workloads returns the four benchmark workloads. Sizes are fixed
// simulated work: a change may lower host time by simulating the same
// thing faster (or by eliding events), never by simulating less.
func workloads(smoke bool) []workloadDef {
	div := 1
	passes := matrixPasses
	if smoke {
		div = smokeDivisor
		passes = 1
	}
	paper := experiments.DefaultScale()
	paper.Messages /= div
	hogs := experiments.DefaultScale()
	hogs.Messages = 40000 / div
	quick := quickMatrixScale()

	spec4 := experiments.SpecByLabel("4P")
	numa := experiments.SpecByLabel("32P-NUMA")

	var matrix []cell
	for pass := 0; pass < passes; pass++ {
		for _, label := range quickMatrixSpecs {
			for _, load := range workload.Names() {
				for _, p := range experiments.DefaultPolicies() {
					matrix = append(matrix, cell{load, p, experiments.SpecByLabel(label), quick})
				}
			}
		}
	}
	return []workloadDef{
		{
			name: "volano_paper",
			why:  "paper Fig.5/6 regime: 10-room VolanoMark on 4P under reg and elsc; policy-dominated, global lock, ipc heavy",
			cells: []cell{
				{workload.Volano, experiments.Reg, spec4, paper},
				{workload.Volano, experiments.ELSC, spec4, paper},
			},
			repSeconds: 5.5,
		},
		{
			name: "volano_numa",
			why:  "same chat load, scalable stack, 32P-NUMA under o1 and cfs: kick delivery, per-CPU locks, balancer; kernel-dominated",
			cells: []cell{
				{workload.Volano, experiments.O1, numa, paper},
				{workload.Volano, experiments.CFS, numa, paper},
			},
			repSeconds: 2.8,
		},
		{
			name: "hogs_segments",
			why:  "32 saturating hogs on 32P-NUMA under o1, cfs, elsc: engine one-shot arm/fire and segment fast path, almost no policy or ipc",
			cells: []cell{
				{workload.Latency, experiments.O1, numa, hogs},
				{workload.Latency, experiments.CFS, numa, hogs},
				{workload.Latency, experiments.ELSC, numa, hogs},
			},
			repSeconds: 3.0,
		},
		{
			name:       "matrix_quick",
			why:        "the sweep -quick matrix (5 policies x 6 loads x 8P,32P-NUMA) x 16 passes: short cells where boot, build, reset and harvest count",
			cells:      matrix,
			repSeconds: 2.4,
		},
	}
}

// machineConfig mirrors experiments.machineConfig (unexported there) so
// the benchmark can pass its own scheduler factory and recycled engine;
// the BENCH_sweep.json cross-check catches any drift between the two.
func machineConfig(c cell, seed int64, eng *sim.Engine, factory kernel.SchedulerFactory) kernel.Config {
	return kernel.Config{
		CPUs:         c.spec.CPUs,
		SMP:          c.spec.SMP,
		Topology:     c.spec.Topology(),
		Seed:         seed,
		NewScheduler: factory,
		MaxCycles:    c.scale.HorizonSeconds * kernel.DefaultHz,
		Engine:       eng,
	}
}

// cellRun is what one cell cost the host and what it simulated.
type cellRun struct {
	boot, build, run, harvest time.Duration

	result workload.Result
	stats  kernel.Stats
	digest string
	steps  uint64 // program actions completed, summed over procs
	// liveHeap is HeapAlloc after Run and a forced GC, with the machine
	// and workload still reachable; 0 unless requested. On a recycled
	// engine it can include the previous cell's machine (see README).
	liveHeap uint64
	// intra/cross are the policy balancer's own steal counts (o1, cfs).
	intra, cross uint64
}

// runOpts selects the optional parts of a cell run.
type runOpts struct {
	timer    *policyTimer               // non-nil: wrap the policy in its timing decorator
	hook     func(ev kernel.TraceEvent) // kernel.Config.Trace
	liveHeap bool                       // force a GC after Run and record HeapAlloc
	spans    *spanLog                   // non-nil: record boot/build/run/harvest spans
	parent   int                        // parent span id
}

// runCell boots a machine on eng, builds the workload, runs it, and
// harvests stats and the determinism digest. It is the same sequence as
// experiments.RunWorkloadCellOn with a clock read between the steps.
func runCell(eng *sim.Engine, c cell, seed int64, o runOpts) cellRun {
	factory := experiments.Factory(c.policy)
	if o.timer != nil {
		factory = timedFactory(c.policy, o.timer)
	}
	cfg := machineConfig(c, seed, eng, factory)
	cfg.Trace = o.hook
	id := o.spans.begin("cell", c.key(), o.parent)

	var out cellRun
	t0 := now()
	m := kernel.NewMachine(cfg)
	t1 := now()
	inst := workload.Build(c.load, m, experiments.WorkloadParams(c.spec, c.scale))
	t2 := now()
	out.result = inst.Run()
	t3 := now()
	out.stats = *m.Stats()
	out.digest = digest(out.result, &out.stats)
	for _, p := range m.Procs() {
		out.steps += p.Steps
	}
	if ds, ok := m.Scheduler().(interface{ DomainSteals() (uint64, uint64) }); ok {
		out.intra, out.cross = ds.DomainSteals()
	}
	t4 := now()
	out.boot, out.build, out.run, out.harvest = t1-t0, t2-t1, t3-t2, t4-t3

	o.spans.add("boot", id, t0, t1)
	o.spans.add("build", id, t1, t2)
	o.spans.add("run", id, t2, t3)
	o.spans.add("harvest", id, t3, t4)
	o.spans.end(id)

	if o.liveHeap {
		out.liveHeap = liveHeap()
		runtime.KeepAlive(m)
		runtime.KeepAlive(inst)
	}
	return out
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupCell is the set-up half of runCell alone: boot and build, no run.
func setupCell(eng *sim.Engine, c cell, seed int64) {
	m := kernel.NewMachine(machineConfig(c, seed, eng, experiments.Factory(c.policy)))
	workload.Build(c.load, m, experiments.WorkloadParams(c.spec, c.scale))
}

// builtHeap is the host memory one built cell holds: HeapAlloc after
// boot+build on a fresh engine and a forced collection, less what was
// live before. A fresh engine, because a recycled one can keep the
// previous cell's machine reachable, which would make the figure depend
// on what ran before.
func builtHeap(c cell, seed int64) uint64 {
	before := liveHeap()
	m := kernel.NewMachine(machineConfig(c, seed, nil, experiments.Factory(c.policy)))
	inst := workload.Build(c.load, m, experiments.WorkloadParams(c.spec, c.scale))
	after := liveHeap()
	runtime.KeepAlive(m)
	runtime.KeepAlive(inst)
	if after < before {
		return 0
	}
	return after - before
}

// digest fingerprints everything a cell simulated: the workload's Result
// and the rendered kernel stats registry. Host time is in neither.
func digest(res workload.Result, st *kernel.Stats) string {
	js, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal result: %v", err))
	}
	h := sha256.New()
	h.Write(js)
	h.Write([]byte(st.Registry().Render()))
	return hex.EncodeToString(h.Sum(nil))
}

// failure reports why a finished cell counts as a failed operation, or "".
func (r *cellRun) failure() string {
	switch {
	case !r.result.Complete:
		return "incomplete at horizon"
	case r.stats.IdleTickRescues != 0:
		return fmt.Sprintf("idle_tick_rescues=%d", r.stats.IdleTickRescues)
	case r.stats.EventsWheel+r.stats.EventsHeap != r.stats.EventsFired:
		return "events_wheel+events_heap != events_fired"
	}
	return ""
}

// base anchors the monotonic clock; now() is one runtime.nanotime call.
var base = time.Now()

func now() time.Duration { return time.Since(base) }
