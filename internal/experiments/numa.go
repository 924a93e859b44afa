package experiments

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// The NUMA experiments: race every policy on a cache-domain machine and
// measure what topology awareness buys. RackSched-style results say
// topology-blind balancing destroys locality at scale; here that shows up
// as cross-domain migrations (each charged CrossDomainRefillMax instead
// of CacheRefillMax at dispatch) and as remote-access cycles while a
// displaced task waits for its pages to rehome.

// scalableVolano is the workload cell for the NUMA tables: VolanoMark
// with volano.ScalableStackCosts. With the 2.3-era big-lock network stack
// the whole 32-processor machine is stack-bound (one socket op at a time
// machine-wide) and every policy measures the same; the scaled specs
// model the fine-grained socket locking the kernel actually had by the
// sched_domains era, so scheduling is what differs.
func scalableVolano(rooms int) Cell {
	return Custom(workload.Volano, fmt.Sprintf("%d rooms, scalable stack", rooms),
		func(m *kernel.Machine, p workload.Params) workload.Instance {
			return workload.VolanoWith(volano.Config{
				Rooms:           rooms,
				MessagesPerUser: p.Work,
				Costs:           volano.ScalableStackCosts(),
			})(m, p)
		})
}

// Numa races every registered policy on a domained spec and reports how
// each treats the interconnect: total and cross-domain migrations
// (machine-observed), the balancer's own intra- versus cross-domain move
// counts where the policy tracks them (o1, cfs), lock spin, and throughput.
func Numa(spec MachineSpec, rooms int) Experiment {
	cells := cellsOn(scalableVolano(rooms), spec, Policies)
	return Experiment{Name: "numa", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		domains := max(spec.Domains, 1)
		t := stats.NewTable(
			fmt.Sprintf("NUMA domains: VolanoMark %d rooms on %s (%d domains x %d CPUs)",
				rooms, spec.Label, domains, spec.CPUs/domains),
			"Scheduler", "Throughput", "spin cyc/sched", "migrations", "cross-dom",
			"remote Mcyc", "intra-steal", "cross-steal")
		for _, c := range cells {
			r := FindRun(runs, c)
			var intra, cross any = "-", "-"
			if r.HasSteals {
				intra, cross = r.IntraSteals, r.CrossSteals
			}
			t.AddRow(c.Policy,
				int(r.Result.Throughput),
				int(perSchedule(r.Stats.SpinCycles, &r.Stats)),
				r.Stats.Migrations,
				r.Stats.CrossDomainMigrations,
				int(r.Stats.RemoteCycles/1_000_000),
				intra,
				cross)
		}
		return t
	}}
}

// o1Arm is one arm of an o1 ablation: its label in the table and the
// cell key, and the config that makes it.
type o1Arm struct {
	label string
	cfg   o1.Config
}

// on is load's cell under the arm's o1 on spec.
func (a o1Arm) on(load Cell, spec MachineSpec) Cell {
	return load.On(spec, O1).Tuned(a.label, func(env *sched.Env) sched.Scheduler {
		return o1.NewWithConfig(env, a.cfg)
	})
}

// topologyArms are o1 as registered and o1 blind to cache domains.
var topologyArms = []o1Arm{{"domain-aware", o1.Config{}}, {"topology-blind", o1.Config{TopologyBlind: true}}}

// AblateTopology isolates what o1's domain awareness buys on a NUMA spec:
// the same scheduler with the TopologyBlind flag set treats the machine
// as one flat domain, so the delta in cross-domain migrations,
// remote-access cycles, and throughput is the value of the hierarchy.
// The effect is largest at marginal load (a few rooms on 32 CPUs), where
// CPUs go idle often enough that the steal path runs constantly; at
// saturation the balancer barely fires and the variants converge. Cells
// are in topologyArms order.
func AblateTopology(spec MachineSpec, rooms int) Experiment {
	cells := make([]Cell, len(topologyArms))
	for i, arm := range topologyArms {
		cells[i] = arm.on(scalableVolano(rooms), spec)
	}
	return Experiment{Name: "numa", Cells: cells, Table: func(runs []WorkloadRun) *stats.Table {
		t := stats.NewTable(
			fmt.Sprintf("Ablation: o1 domain awareness (%s, %d rooms)", spec.Label, rooms),
			"o1 variant", "Throughput", "migrations", "cross-dom", "remote Mcyc", "cache Mcyc")
		for i, arm := range topologyArms {
			r := FindRun(runs, cells[i])
			t.AddRow(arm.label,
				int(r.Result.Throughput),
				r.Stats.Migrations,
				r.Stats.CrossDomainMigrations,
				int(r.Stats.RemoteCycles/1_000_000),
				int(r.Stats.CacheCycles/1_000_000))
		}
		return t
	}}
}
