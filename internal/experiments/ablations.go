package experiments

import (
	"fmt"

	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/stats"
)

// Ablations quantify the ELSC design choices the paper discusses but does
// not measure separately:
//
//   - the per-list search limit ("half the number of processors plus
//     five"),
//   - the table size (30 lists),
//   - the uniprocessor memory-map shortcut (§5.2).

// elscArm is one row of an ELSC ablation: what its first column shows and
// the config behind it.
type elscArm struct {
	row any
	cfg elsc.Config
}

// tunedELSC is an ablation cell: VolanoMark on spec under a configured
// ELSC, labelled by what the config changes.
func tunedELSC(spec MachineSpec, rooms int, label string, cfg elsc.Config) Cell {
	return Volano(rooms).On(spec, ELSC).Tuned(label, func(env *sched.Env) sched.Scheduler {
		return elsc.NewWithConfig(env, cfg)
	})
}

// ablateELSC declares one ablation table: VolanoMark on spec under each
// arm's ELSC, a row per arm headed by column, with throughput and
// schedule() cost — and new-CPU dispatches where the knob can move them.
func ablateELSC(title, column string, migrations bool, spec MachineSpec, rooms int, arms []elscArm) Experiment {
	cells := make([]Cell, len(arms))
	for i, arm := range arms {
		cells[i] = tunedELSC(spec, rooms, fmt.Sprintf("%s=%v", column, arm.row), arm.cfg)
	}
	headers := []string{column, "Throughput", "cyc/sched", "examined"}
	if migrations {
		headers = append(headers, "migrations")
	}
	return Experiment{Name: "ablate", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(title, headers...)
		for i, arm := range arms {
			r := FindRun(runs, cells[i])
			row := []any{arm.row, int(r.Result.Throughput), int(r.Stats.CyclesPerSchedule()),
				r.Stats.ExaminedPerSchedule()}
			if migrations {
				row = append(row, r.Stats.Migrations)
			}
			t.AddRow(row...)
		}
		return t
	}}
}

// AblateSearchLimit sweeps the per-list examination cap.
func AblateSearchLimit(spec MachineSpec, rooms int, limits []int) Experiment {
	arms := make([]elscArm, len(limits))
	for i, lim := range limits {
		arms[i] = elscArm{lim, elsc.Config{SearchLimit: lim}}
	}
	return ablateELSC(fmt.Sprintf("Ablation: ELSC search limit (%s, %d rooms; paper uses ncpu/2+5 = %d)",
		spec.Label, rooms, spec.CPUs/2+5), "Limit", true, spec, rooms, arms)
}

// AblateTableSize sweeps the number of lists in the table.
func AblateTableSize(spec MachineSpec, rooms int, sizes []int) Experiment {
	arms := make([]elscArm, len(sizes))
	for i, size := range sizes {
		arms[i] = elscArm{size, elsc.Config{TableSize: size}}
	}
	return ablateELSC(fmt.Sprintf("Ablation: ELSC table size (%s, %d rooms; paper uses 30)", spec.Label, rooms),
		"Lists", false, spec, rooms, arms)
}

// AblateUPShortcut measures the uniprocessor mm-match early exit.
func AblateUPShortcut(rooms int) Experiment {
	return ablateELSC(fmt.Sprintf("Ablation: ELSC UP shortcut (UP, %d rooms)", rooms),
		"Shortcut", false, SpecByLabel("UP"), rooms, []elscArm{
			{"on (paper)", elsc.Config{}},
			{"off", elsc.Config{DisableUPShortcut: true}},
		})
}
