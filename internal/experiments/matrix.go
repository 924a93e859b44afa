package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// The generic policy x workload x machine matrix runner. Where the
// figure-specific harnesses in this package reproduce the paper's
// VolanoMark-centric evaluation, these entry points drive any workload in
// the registry under any registered policy on any machine spec, through
// one code path: a new workload registered in internal/workload (or a new
// policy in Policies) joins every matrix table, the determinism
// regression, and the sweep JSON without further wiring.

// WorkloadParams maps a Scale onto the registry's sizing knobs for a run
// on the given spec. Machines past the paper's hardware (16+ CPUs) get
// the post-2.3 scalable network stack for the socket-bound workloads, as
// the NUMA experiments do: the 2.3-era serialized stack caps the whole
// machine at one socket operation at a time and would make every policy
// measure the same.
func WorkloadParams(spec MachineSpec, sc Scale) workload.Params {
	return workload.Params{
		Work:          sc.Messages,
		Quick:         sc.Quick,
		ScalableStack: spec.CPUs >= 16,
	}
}

// WorkloadRun is one cell of the generic matrix.
type WorkloadRun struct {
	Spec   MachineSpec
	Policy string
	Load   string
	Result workload.Result
	Stats  kernel.Stats

	// WallNS is the host wall-clock the cell took to build and run, in
	// nanoseconds. It is the one host-dependent number a run carries —
	// recorded in BENCH_wallclock.json so harness-speed regressions show
	// up across PRs — and is excluded from every determinism digest.
	WallNS int64

	// BonusLevels and InteractiveRequeues are the interactivity
	// estimator's own counters, for policies that track them (HasBonus):
	// enqueues by dynamic-priority bonus (-5..+5) and active-array
	// re-insertions granted.
	BonusLevels         []uint64
	InteractiveRequeues uint64
	HasBonus            bool
}

// BonusStatser is implemented by policies whose interactivity estimator
// exposes its observable counters (o1): the matrix harvests them into
// WorkloadRun, schedtrace renders them.
type BonusStatser interface {
	BonusLevels() []uint64
	InteractiveRequeues() uint64
}

// Key renders "db-o1-8P" style identifiers.
func (r WorkloadRun) Key() string {
	return fmt.Sprintf("%s-%s-%s", r.Load, r.Policy, r.Spec.Label)
}

// RunWorkloadCell executes one workload under one policy on one spec.
func RunWorkloadCell(spec MachineSpec, policy, load string, sc Scale) WorkloadRun {
	return RunWorkloadCellOn(nil, spec, policy, load, sc)
}

// RunWorkloadCellOn is RunWorkloadCell on a recycled event engine (nil
// builds a fresh one): the matrix worker pool passes each worker's
// engine so hundreds of cells share one set of wheel rings and one freelist
// instead of re-paying engine construction per cell.
func RunWorkloadCellOn(eng *sim.Engine, spec MachineSpec, policy, load string, sc Scale) WorkloadRun {
	start := time.Now()
	run := runWorkloadOn(NewMachineOn(eng, spec, policy, sc), spec, policy, load, sc)
	run.WallNS = time.Since(start).Nanoseconds()
	return run
}

// RunWorkloadCellWith executes one workload cell with an explicit
// scheduler factory — the entry for ablation variants that tune a
// policy's config (the interactivity and topology studies).
func RunWorkloadCellWith(spec MachineSpec, factory kernel.SchedulerFactory, policyLabel, load string, sc Scale) WorkloadRun {
	start := time.Now()
	run := runWorkloadOn(NewMachineWith(spec, factory, sc), spec, policyLabel, load, sc)
	run.WallNS = time.Since(start).Nanoseconds()
	return run
}

// runWorkloadOn runs the named workload on a prepared machine and
// harvests the result, machine stats, and the estimator counters when
// the policy tracks them.
func runWorkloadOn(m *kernel.Machine, spec MachineSpec, policy, load string, sc Scale) WorkloadRun {
	res := workload.Build(load, m, WorkloadParams(spec, sc)).Run()
	run := WorkloadRun{Spec: spec, Policy: policy, Load: load, Result: res, Stats: *m.Stats()}
	if bs, ok := m.Scheduler().(BonusStatser); ok {
		run.BonusLevels = bs.BonusLevels()
		run.InteractiveRequeues = bs.InteractiveRequeues()
		run.HasBonus = true
	}
	return run
}

// RunWorkloadMatrix sweeps policies x specs x workloads, running cells in
// parallel, and returns results in deterministic (input) order.
func RunWorkloadMatrix(policies []string, specs []MachineSpec, loads []string, sc Scale) []WorkloadRun {
	type cell struct {
		spec   MachineSpec
		policy string
		load   string
	}
	var jobs []cell
	for _, spec := range specs {
		for _, l := range loads {
			for _, p := range policies {
				jobs = append(jobs, cell{spec: spec, policy: p, load: l})
			}
		}
	}
	out := make([]WorkloadRun, len(jobs))
	forEachIndexParallel(len(jobs), sc, func(i int, eng *sim.Engine) {
		j := jobs[i]
		out[i] = RunWorkloadCellOn(eng, j.spec, j.policy, j.load, sc)
	})
	return out
}

// FindWorkload returns the cell matching the key parameters, or panics;
// matrices are small and a missing cell is a harness bug.
func FindWorkload(runs []WorkloadRun, policy, label, load string) WorkloadRun {
	for _, r := range runs {
		if r.Policy == policy && r.Spec.Label == label && r.Load == load {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no run %s-%s-%s", load, policy, label))
}

// MatrixTable renders the policy x workload throughput grid for one spec:
// one row per policy, one column per workload (in its own unit). An
// incomplete run — the workload did not finish before the horizon — is
// flagged with a trailing '!', since its throughput understates.
func MatrixTable(runs []WorkloadRun, spec MachineSpec, policies, loads []string) *stats.Table {
	headers := make([]string, 0, len(loads)+1)
	headers = append(headers, "Policy")
	for _, l := range loads {
		unit := FindWorkload(runs, policies[0], spec.Label, l).Result.Unit
		headers = append(headers, fmt.Sprintf("%s (%s)", l, unit))
	}
	t := stats.NewTable(
		fmt.Sprintf("Policy x workload throughput on %s", spec.Label), headers...)
	for _, p := range policies {
		row := make([]any, 0, len(loads)+1)
		row = append(row, p)
		for _, l := range loads {
			r := FindWorkload(runs, p, spec.Label, l)
			cell := fmt.Sprintf("%d", int(r.Result.Throughput))
			if !r.Result.Complete {
				cell += "!"
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// WorkloadDetail renders one workload's per-policy breakdown on one spec:
// throughput plus every extra metric the workload reports, so a workload
// with tail-latency or contention counters (db, wakestorm) gets a full
// table without bespoke harness code.
func WorkloadDetail(runs []WorkloadRun, spec MachineSpec, policies []string, load string) *stats.Table {
	first := FindWorkload(runs, policies[0], spec.Label, load)
	headers := []string{"Policy", "Throughput (" + first.Result.Unit + ")"}
	for _, m := range first.Result.Extras {
		headers = append(headers, m.Name)
	}
	t := stats.NewTable(
		fmt.Sprintf("Workload detail: %s on %s", load, spec.Label), headers...)
	for _, p := range policies {
		r := FindWorkload(runs, p, spec.Label, load)
		row := []any{p, int(r.Result.Throughput)}
		for _, m := range first.Result.Extras {
			v, ok := r.Result.Extra(m.Name)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}

// WakeStorm races the default (non-baseline) policies through the
// wake-storm workload on one spec and reports per-policy wakeup-to-run
// latency: the p50/p99/max tail a woken herd member waits before it
// actually executes.
func WakeStorm(spec MachineSpec, sc Scale) *stats.Table {
	pols := DefaultPolicies()
	runs := RunWorkloadMatrix(pols, []MachineSpec{spec}, []string{workload.WakeStorm}, sc)
	return WorkloadDetail(runs, spec, pols, workload.WakeStorm)
}

// forEachIndexParallel runs n independent jobs on a pool of sc.Workers()
// workers, with results written by index so table order stays
// deterministic regardless of completion order. Each worker owns one
// recycled event engine for its whole job stream (cells reuse the wheel
// rings and freelist instead of reallocating them) and is
// tagged with a sweep_worker pprof label, so a CPU profile of a parallel
// sweep can be sliced per worker.
func forEachIndexParallel(n int, sc Scale, run func(i int, eng *sim.Engine)) {
	workers := sc.Workers()
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("sweep_worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				eng := new(sim.Engine)
				for i := range jobs {
					run(i, eng)
				}
			})
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
