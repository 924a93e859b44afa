// Command schedtrace runs a small scenario and prints every schedule()
// decision: which task was running, which was chosen, how many tasks the
// scheduler examined, and what it cost. A teaching and debugging tool for
// comparing the stock scan against ELSC's table search side by side. With
// -domains and -sched o1 it also renders the balancer's per-CPU steal
// counters grouped by cache domain, splitting in-domain from cross-domain
// moves.
//
// With -hotplug it hot-unplugs a CPU mid-run and brings it back,
// printing the transitions inline with the schedule() stream, and with
// -watchdog it arms the starvation/lockup watchdog so any liveness
// violation prints at its virtual timestamp.
//
// Usage:
//
//	schedtrace -sched reg -tasks 6 -n 40
//	schedtrace -sched elsc -tasks 6 -n 40
//	schedtrace -sched o1 -cpus 8 -domains 2 -tasks 32 -n 0
//	schedtrace -sched o1 -cpus 4 -tasks 16 -hotplug 2 -watchdog -n 0
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

func main() {
	var (
		schedName = flag.String("sched", "elsc", "scheduler: "+strings.Join(experiments.Policies, ", "))
		cpus      = flag.Int("cpus", 1, "number of processors")
		domains   = flag.Int("domains", 1, "cache domains (NUMA-style topology when > 1)")
		tasks     = flag.Int("tasks", 6, "interactive tasks to simulate")
		n         = flag.Int("n", 40, "decisions to print (0 = trace nothing, stats only)")
		seed      = flag.Int64("seed", 42, "simulation seed")
		showTable = flag.Bool("table", false, "dump the ELSC table (Figure 1b view) at the end")
		hotplug   = flag.Int("hotplug", -1, "CPU to hot-unplug at t=500k cycles and re-plug at t=1.5M (-1 = none)")
		watchdog  = flag.Bool("watchdog", false, "arm the starvation/lockup watchdog; violations print inline")
	)
	flag.Parse()
	if err := experiments.CheckName(*schedName, experiments.Policies); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	printed := 0
	cfg := kernel.Config{
		CPUs:         *cpus,
		SMP:          *cpus > 1,
		Topology:     experiments.MachineSpec{CPUs: *cpus, Domains: *domains}.Topology(),
		Seed:         *seed,
		NewScheduler: experiments.Factory(*schedName),
		MaxCycles:    100 * kernel.DefaultHz,
		Trace: func(ev kernel.TraceEvent) {
			if printed >= *n {
				return
			}
			printed++
			next := "idle"
			if ev.Next != nil {
				next = ev.Next.String()
			}
			extra := ""
			if ev.Recalcs > 0 {
				extra = fmt.Sprintf("  RECALC x%d", ev.Recalcs)
			}
			if ev.Spin > 0 {
				extra += fmt.Sprintf("  spin=%d", ev.Spin)
			}
			fmt.Printf("t=%-12d cpu%d  %-18s -> %-18s examined=%-3d cycles=%-6d%s\n",
				ev.Now, ev.CPU, ev.Prev.String(), next, ev.Examined, ev.Cycles, extra)
		},
	}
	if *watchdog {
		cfg.Watchdog = &kernel.WatchdogConfig{
			OnViolation: func(v kernel.WatchdogViolation) {
				fmt.Printf("t=%-12d WATCHDOG %s\n", v.Now, v)
			},
		}
	}
	m := kernel.NewMachine(cfg)
	if *hotplug >= 0 {
		if *hotplug >= *cpus {
			fmt.Printf("-hotplug %d: no such CPU on a %d-processor machine\n", *hotplug, *cpus)
			return
		}
		cpu := *hotplug
		m.Engine().At(500_000, "trace-offline", func(now sim.Time) {
			if err := m.OfflineCPU(cpu); err != nil {
				fmt.Printf("t=%-12d cpu%d  OFFLINE refused: %v\n", now, cpu, err)
				return
			}
			fmt.Printf("t=%-12d cpu%d  OFFLINE (tasks drained to survivors)\n", now, cpu)
		})
		m.Engine().At(1_500_000, "trace-online", func(now sim.Time) {
			if err := m.OnlineCPU(cpu); err != nil {
				fmt.Printf("t=%-12d cpu%d  ONLINE refused: %v\n", now, cpu, err)
				return
			}
			fmt.Printf("t=%-12d cpu%d  ONLINE (tick re-armed, affinities restored)\n", now, cpu)
		})
	}

	for i := 0; i < *tasks; i++ {
		steps := 0
		rng := m.RNG().Fork()
		m.Spawn(fmt.Sprintf("worker%d", i), nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			if steps >= 30 {
				return kernel.Exit{}
			}
			steps++
			switch steps % 3 {
			case 0:
				return kernel.Yield{}
			case 1:
				return kernel.Compute{Cycles: rng.Range(10_000, 80_000)}
			default:
				return kernel.Sleep{Cycles: rng.Range(20_000, 100_000)}
			}
		}))
	}
	m.Run(func() bool { return (*n > 0 && printed >= *n) || m.Alive() == 0 })

	s := m.Stats()
	fmt.Printf("\n%s totals: %d schedule() calls, %.0f cycles/call, %.1f examined/call, %d recalcs\n",
		m.Scheduler().Name(), s.SchedCalls, s.CyclesPerSchedule(), s.ExaminedPerSchedule(), s.Recalcs)
	if s.Migrations > 0 || s.CrossDomainMigrations > 0 {
		fmt.Printf("migrations: %d (%d cross-domain)\n", s.Migrations, s.CrossDomainMigrations)
	}
	// The steal and bonus sections render only for policies that track
	// the counters: a policy with no Ops.Steals (reg, elsc, heap, mq) gets
	// no steals section rather than an empty table, and likewise for the
	// interactivity estimator's bonus distribution (Ops.Bonus).
	ops := m.Ops()
	if ops.Steals != nil && *cpus > 1 {
		fmt.Println()
		fmt.Print(stealTable(m.Scheduler().Name(), ops.Steals(), m.Env().Topo).Render())
	}
	if ops.Bonus != nil {
		fmt.Println()
		fmt.Print(bonusTable(ops.Bonus()).Render())
	}
	// Hotplug and watchdog sections follow the same conditional-section
	// rule as steals and bonus: a run with no CPU transitions gets no
	// hotplug table, and an unarmed run gets no watchdog line — existing
	// invocations render byte-identically.
	if s.CPUOfflines > 0 || s.CPUOnlines > 0 {
		fmt.Println()
		fmt.Print(hotplugTable(m.CPUStats()).Render())
	}
	if s.WatchdogEnabled {
		fmt.Printf("\nwatchdog: %d starvations, %d invariant faults\n",
			s.WatchdogStarvations, s.WatchdogInvariantFaults)
	}
	// Tickless section, same conditional-section rule: renders only when
	// some idle CPU actually parked its tick chain (ticks_skipped counts
	// the firings the always-on chain would have paid for; a nonzero
	// rescue count means the audited error path fired — see Stats).
	if s.TicksSkipped > 0 || s.IdleTickRescues > 0 {
		fmt.Printf("\ntickless: %d idle ticks skipped, %d rescues\n",
			s.TicksSkipped, s.IdleTickRescues)
		fmt.Println()
		fmt.Print(ticklessTable(m.CPUStats()).Render())
	}
	if *showTable {
		if ops.Dump != nil {
			fmt.Println()
			fmt.Print(ops.Dump())
		} else {
			fmt.Println("(-table requires -sched elsc)")
		}
	}
}

// stealTable renders a domain-split balancer's per-CPU steal counters
// grouped by cache domain: how many tasks each CPU's steal/pull paths
// moved onto it from inside its own domain versus across the
// interconnect, with a subtotal row per domain and a machine total.
func stealTable(name string, perCPU []sched.CPUSteals, topo *sched.Topology) *stats.Table {
	t := stats.NewTable(name+" balancer steals (by stealing CPU)",
		"CPU", "domain", "in-domain", "cross-domain")
	var totalIn, totalCross uint64
	for d := 0; d < topo.NumDomains(); d++ {
		var domIn, domCross uint64
		for _, cpu := range topo.DomainCPUs(d) {
			st := perCPU[cpu]
			t.AddRow(cpu, d, st.Intra, st.Cross)
			domIn += st.Intra
			domCross += st.Cross
		}
		if topo.NumDomains() > 1 {
			t.AddRow(fmt.Sprintf("dom%d", d), d, domIn, domCross)
		}
		totalIn += domIn
		totalCross += domCross
	}
	t.AddRow("total", "-", totalIn, totalCross)
	return t
}

// hotplugTable renders the per-CPU hotplug history: final state, how
// many times each processor was unplugged, and its total offline time.
func hotplugTable(perCPU []kernel.CPUStat) *stats.Table {
	t := stats.NewTable("cpu hotplug transitions",
		"CPU", "state", "offlines", "offline-cycles")
	for _, c := range perCPU {
		state := "online"
		if !c.Online {
			state = "offline"
		}
		t.AddRow(c.CPU, state, c.Offlines, c.OfflineCycles)
	}
	return t
}

// ticklessTable renders the per-CPU NO_HZ residency: how much of each
// processor's idle time passed with the tick chain parked.
func ticklessTable(perCPU []kernel.CPUStat) *stats.Table {
	t := stats.NewTable("tickless idle residency",
		"CPU", "idle-cycles", "tickless-cycles", "tickless-%")
	for _, c := range perCPU {
		pct := 0.0
		if c.IdleCycles > 0 {
			pct = 100 * float64(c.TicklessCycles) / float64(c.IdleCycles)
		}
		t.AddRow(c.CPU, c.IdleCycles, c.TicklessCycles, fmt.Sprintf("%.1f%%", pct))
	}
	return t
}

// bonusTable renders the interactivity estimator's observable output:
// how many enqueues landed at each dynamic-priority bonus (-5 = a pure
// hog, +5 = a task that sleeps most of the time), plus the active-array
// requeues the interactive classification granted.
func bonusTable(levels []uint64, requeues uint64) *stats.Table {
	t := stats.NewTable("o1 interactivity: enqueues by sleep_avg bonus",
		"bonus", "enqueues")
	for i, n := range levels {
		t.AddRow(fmt.Sprintf("%+d", i-len(levels)/2), n)
	}
	t.AddRow("requeues", requeues)
	return t
}
