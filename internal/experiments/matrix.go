package experiments

import (
	"fmt"

	"elsc/internal/stats"
	"elsc/internal/workload"
)

// The policy x workload x machine matrix: any workload in the registry
// under any registered policy on any machine spec. A new workload
// registered in internal/workload (or a new policy in Policies) joins
// every matrix table, the determinism regression, and the sweep JSON
// without further wiring.

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

// matrixCells declares policies x specs x loads, spec-major.
func matrixCells(policies []string, specs []MachineSpec, loads []string) []Cell {
	var cells []Cell
	for _, spec := range specs {
		for _, l := range loads {
			cells = append(cells, cellsOn(Load(l), spec, policies)...)
		}
	}
	return cells
}

// RunWorkloadMatrix sweeps policies x specs x workloads, running cells in
// parallel, and returns results in deterministic (input) order.
func RunWorkloadMatrix(policies []string, specs []MachineSpec, loads []string, sc Scale) []WorkloadRun {
	return RunCells(matrixCells(policies, specs, loads), sc)
}

// MatrixTable is the policy x workload throughput grid for one spec: one
// row per policy, one column per workload (in its own unit). An
// incomplete run — the workload did not finish before the horizon — is
// flagged with a trailing '!', since its throughput understates.
func MatrixTable(spec MachineSpec, policies, loads []string) Experiment {
	cells := matrixCells(policies, []MachineSpec{spec}, loads)
	return Experiment{Name: "matrix", Cells: cells, Recorded: true, Table: func(runs []WorkloadRun) *stats.Table {
		headers := []string{"Policy"}
		for _, l := range loads {
			unit := FindRun(runs, Load(l).On(spec, policies[0])).Result.Unit
			headers = append(headers, fmt.Sprintf("%s (%s)", l, unit))
		}
		t := stats.NewTable(
			fmt.Sprintf("Policy x workload throughput on %s", spec.Label), headers...)
		for _, p := range policies {
			row := []any{p}
			for _, l := range loads {
				r := FindRun(runs, Load(l).On(spec, p))
				cell := fmt.Sprintf("%d", int(r.Result.Throughput))
				if !r.Result.Complete {
					cell += "!"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		return t
	}}
}

// WorkloadDetail is one workload's per-policy breakdown on one spec:
// throughput plus every extra metric the workload reports, so a workload
// with tail-latency or contention counters gets a full table without
// bespoke harness code. The experiment takes the workload's name; sweep
// runs it for wakestorm — the p50/p99/max a woken herd member waits
// before it actually executes.
func WorkloadDetail(spec MachineSpec, policies []string, load string) Experiment {
	cells := cellsOn(Load(load), spec, policies)
	return Experiment{Name: load, Cells: cells, Recorded: true, Table: func(runs []WorkloadRun) *stats.Table {
		first := FindRun(runs, cells[0])
		headers := []string{"Policy", "Throughput (" + first.Result.Unit + ")"}
		for _, m := range first.Result.Extras {
			headers = append(headers, m.Name)
		}
		t := stats.NewTable(
			fmt.Sprintf("Workload detail: %s on %s", load, spec.Label), headers...)
		for _, c := range cells {
			r := FindRun(runs, c)
			row := []any{c.Policy, int(r.Result.Throughput)}
			for _, m := range r.Result.Extras { // one workload: the same extras, in the same order
				row = append(row, m.Value)
			}
			t.AddRow(row...)
		}
		return t
	}}
}
