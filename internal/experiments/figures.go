package experiments

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/latency"
)

// paperPolicies are the two schedulers the paper measures.
var paperPolicies = []string{Reg, ELSC}

// Table2 reproduces the paper's Table 2: average time to complete a full
// kernel compile under both schedulers, on UP and 2P machines: the
// registry's kbuild, sized from the Scale.
func Table2() Experiment {
	build := Load(workload.KBuild)
	var cells []Cell
	for _, spec := range []MachineSpec{SpecByLabel("UP"), SpecByLabel("2P")} {
		cells = append(cells, cellsOn(build, spec, paperPolicies)...)
	}
	return Experiment{Name: "table2", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable("Table 2: time to complete kernel compilation (make -j4)",
			"Scheduler", "Time", "Seconds")
		for _, c := range cells {
			r := FindRun(runs, c)
			name := map[string]string{Reg: "Current", ELSC: "ELSC"}[c.Policy]
			t.AddRow(fmt.Sprintf("%s - %s", name, c.Spec.Label),
				stats.FormatDuration(r.Result.Cycles, kernel.DefaultHz), r.Result.Seconds)
		}
		return t
	}}
}

// figureRuns looks up one run of a figure's VolanoMark set.
type figureRuns func(policy string, spec MachineSpec, rooms int) WorkloadRun

// figure declares one of the paper's VolanoMark figures: both schedulers
// on each spec at each room count, rendered by table from a lookup into
// that run set. Figures 2-6 and the profile overlap almost entirely, and
// share the overlapping runs.
func figure(name string, specs []MachineSpec, rooms []int, table func(run figureRuns) *stats.Table) Experiment {
	var cells []Cell
	for _, r := range rooms {
		for _, spec := range specs {
			cells = append(cells, cellsOn(Volano(r), spec, paperPolicies)...)
		}
	}
	return Experiment{Name: name, Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		return table(func(policy string, spec MachineSpec, rooms int) WorkloadRun {
			return FindRun(runs, Volano(rooms).On(spec, policy))
		})
	}}
}

// bySpec is a figure of one row per paper spec, comparing the ELSC and
// stock runs at one room count: row renders the columns after the spec's
// label from the two machines' stats.
func bySpec(name, title string, headers []string, rooms int, row func(e, r *kernel.Stats) []any) Experiment {
	return figure(name, PaperSpecs, []int{rooms}, func(run figureRuns) *stats.Table {
		t := stats.NewTable(fmt.Sprintf(title, rooms), append([]string{"Config"}, headers...)...)
		for _, spec := range PaperSpecs {
			e, r := run(ELSC, spec, rooms), run(Reg, spec, rooms)
			t.AddRow(append([]any{spec.Label}, row(&e.Stats, &r.Stats)...)...)
		}
		return t
	})
}

// Fig2 reproduces Figure 2: counter-recalculation loop entries per
// VolanoMark run (log-scale contrast), per machine configuration.
func Fig2(rooms int) Experiment {
	return bySpec("fig2", "Figure 2: recalculate-loop entries (VolanoMark, %d rooms)",
		[]string{"elsc", "reg", "reg/elsc"}, rooms, func(e, r *kernel.Stats) []any {
			ratio := "inf"
			if e.Recalcs > 0 {
				ratio = fmt.Sprintf("%.1f", float64(r.Recalcs)/float64(e.Recalcs))
			}
			return []any{e.Recalcs, r.Recalcs, ratio}
		})
}

// Fig3 reproduces Figure 3: message throughput versus room count. The
// paper splits it into a UP/1P panel and a 4P panel; this renders all four
// configurations as series.
func Fig3(rooms []int) Experiment {
	return figure("fig3", PaperSpecs, rooms, func(run figureRuns) *stats.Table {
		t := stats.NewTable("Figure 3: VolanoMark throughput (messages/second)",
			"Rooms", "elsc-up", "reg-up", "elsc-1p", "reg-1p", "elsc-2p", "reg-2p", "elsc-4p", "reg-4p")
		for _, r := range rooms {
			row := []any{r}
			for _, spec := range PaperSpecs {
				row = append(row,
					int(run(ELSC, spec, r).Result.Throughput),
					int(run(Reg, spec, r).Result.Throughput))
			}
			t.AddRow(row...)
		}
		return t
	})
}

// Fig4 reproduces Figure 4: the scaling factor, throughput at the largest
// room count divided by throughput at the smallest.
func Fig4(loRooms, hiRooms int) Experiment {
	return figure("fig4", PaperSpecs, []int{loRooms, hiRooms}, func(run figureRuns) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("Figure 4: scaling factor (%d-room / %d-room throughput)", hiRooms, loRooms),
			"Config", "elsc", "reg")
		for _, spec := range PaperSpecs {
			e := run(ELSC, spec, hiRooms).Result.Throughput / run(ELSC, spec, loRooms).Result.Throughput
			r := run(Reg, spec, hiRooms).Result.Throughput / run(Reg, spec, loRooms).Result.Throughput
			t.AddRow(spec.Label, e, r)
		}
		return t
	})
}

// Fig5 reproduces Figure 5: cycles per schedule() entry and tasks examined
// per entry.
func Fig5(rooms int) Experiment {
	return bySpec("fig5", "Figure 5: schedule() cost (VolanoMark, %d rooms)",
		[]string{"elsc cyc/call", "reg cyc/call", "elsc examined", "reg examined"}, rooms,
		func(e, r *kernel.Stats) []any {
			return []any{int(e.CyclesPerSchedule()), int(r.CyclesPerSchedule()),
				e.ExaminedPerSchedule(), r.ExaminedPerSchedule()}
		})
}

// Fig6 reproduces Figure 6: total calls to schedule() (thousands) and
// tasks scheduled on a processor other than their last, both for the
// 10-room runs the paper uses.
func Fig6(rooms int) Experiment {
	return bySpec("fig6", "Figure 6: schedule() calls and migrations (VolanoMark, %d rooms)",
		[]string{"elsc calls(k)", "reg calls(k)", "elsc new-cpu", "reg new-cpu"}, rooms,
		func(e, r *kernel.Stats) []any {
			return []any{int(e.SchedCalls / 1000), int(r.SchedCalls / 1000), e.Migrations, r.Migrations}
		})
}

// Profile reproduces the §4 claim that 37-55% of kernel time goes to the
// scheduler under the stock scheduler, and contrasts ELSC.
func Profile(rooms []int) Experiment {
	up := SpecByLabel("UP")
	return figure("profile", []MachineSpec{up}, rooms, func(run figureRuns) *stats.Table {
		t := stats.NewTable("§4 profile: scheduler share of kernel time (UP)",
			"Rooms", "reg %", "elsc %")
		for _, r := range rooms {
			regStats := run(Reg, up, r).Stats
			elscStats := run(ELSC, up, r).Stats
			t.AddRow(r,
				100*regStats.SchedulerShareOfKernel(),
				100*elscStats.SchedulerShareOfKernel())
		}
		return t
	})
}

// perSchedule divides a machine-wide count by the schedule() calls it
// accrued over.
func perSchedule(n uint64, st *kernel.Stats) float64 {
	if st.SchedCalls == 0 {
		return 0
	}
	return float64(n) / float64(st.SchedCalls)
}

// AltSchedulers compares the future-work designs (§8) against ELSC and the
// stock scheduler on one VolanoMark configuration.
func AltSchedulers(spec MachineSpec, rooms int) Experiment {
	cells := cellsOn(Volano(rooms), spec, Policies)
	return Experiment{Name: "alt", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("§8 alternatives: VolanoMark %d rooms on %s", rooms, spec.Label),
			"Scheduler", "Throughput", "cyc/sched", "examined", "recalcs", "migrations")
		for _, c := range cells {
			r := FindRun(runs, c)
			t.AddRow(c.Policy,
				int(r.Result.Throughput),
				int(r.Stats.CyclesPerSchedule()),
				r.Stats.ExaminedPerSchedule(),
				r.Stats.Recalcs,
				r.Stats.Migrations)
		}
		return t
	}}
}

// LockContention races every scheduler on one VolanoMark configuration
// and reports run-queue lock behavior: spin cycles per schedule() call,
// the fraction of acquisitions that hit a held lock, and throughput. On
// the 8P spec this isolates the benefit of splitting the global lock —
// the per-CPU policies (mq, o1) should show an order less lock wait than
// the global-lock ones.
func LockContention(spec MachineSpec, rooms int) Experiment {
	cells := cellsOn(Volano(rooms), spec, Policies)
	return Experiment{Name: "lock", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("Run-queue lock wait: VolanoMark %d rooms on %s", rooms, spec.Label),
			"Scheduler", "Throughput", "spin cyc/sched", "contended %", "acquisitions")
		for _, c := range cells {
			r := FindRun(runs, c)
			contended := 0.0
			if r.Stats.LockAcquisitions > 0 {
				contended = 100 * float64(r.Stats.LockContended) / float64(r.Stats.LockAcquisitions)
			}
			t.AddRow(c.Policy,
				int(r.Result.Throughput),
				int(perSchedule(r.Stats.SpinCycles, &r.Stats)),
				contended,
				r.Stats.LockAcquisitions)
		}
		return t
	}}
}

// WakeLatency measures wake-to-dispatch latency versus background load —
// an extension along the related-work axis (§2): the stock scheduler's
// O(n) scan sits on the wake path, so its latency grows with the run
// queue.
func WakeLatency(spec MachineSpec, hogCounts []int) Experiment {
	probes := func(hogs int) Cell {
		return Custom(workload.Latency, fmt.Sprintf("%d hogs", hogs), workload.LatencyWith(latency.Config{Hogs: hogs}))
	}
	var cells []Cell
	for _, hogs := range hogCounts {
		cells = append(cells, cellsOn(probes(hogs), spec, paperPolicies)...)
	}
	return Experiment{Name: "latency", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("Extension: wake-to-dispatch latency on %s (us)", spec.Label),
			"Hogs", "reg mean", "reg p99", "reg max", "elsc mean", "elsc p99", "elsc max")
		for _, hogs := range hogCounts {
			row := []any{hogs}
			for _, policy := range paperPolicies {
				r := FindRun(runs, probes(hogs).On(spec, policy))
				for _, metric := range []string{"mean_us", "p99_us", "max_us"} {
					v, _ := r.Result.Extra(metric)
					row = append(row, v)
				}
			}
			t.AddRow(row...)
		}
		return t
	}}
}

// Webserver runs the §8 Apache question: throughput and latency under
// both schedulers at a given machine spec, over the registry's webserver
// sized from the Scale.
func Webserver(spec MachineSpec) Experiment {
	cells := cellsOn(Load(workload.WebServer), spec, paperPolicies)
	return Experiment{Name: "web", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("§8 future work: Apache-style webserver on %s", spec.Label),
			"Scheduler", "req/s", "mean lat (ms)", "max lat (ms)", "cyc/sched")
		for _, c := range cells {
			r := FindRun(runs, c)
			meanLat, _ := r.Result.Extra("mean_lat_ms")
			maxLat, _ := r.Result.Extra("max_lat_ms")
			t.AddRow(c.Policy,
				int(r.Result.Throughput),
				meanLat,
				maxLat,
				int(r.Stats.CyclesPerSchedule()))
		}
		return t
	}}
}
