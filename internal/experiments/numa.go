package experiments

import (
	"fmt"

	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/sim"
	"elsc/internal/stats"
	"elsc/internal/workload/volano"
)

// The NUMA experiments: race every policy on a cache-domain machine and
// measure what topology awareness buys. RackSched-style results say
// topology-blind balancing destroys locality at scale; here that shows up
// as cross-domain migrations (each charged CrossDomainRefillMax instead
// of CacheRefillMax at dispatch) and as remote-access cycles while a
// displaced task waits for its pages to rehome.
//
// These runs use volano.ScalableStackCosts: with the 2.3-era big-lock
// network stack the whole 32-processor machine is stack-bound (one socket
// op at a time machine-wide) and every policy measures the same. The
// scaled specs model the fine-grained socket locking the kernel actually
// had by the sched_domains era, so scheduling is what differs.

// forEachParallel runs n independent simulations concurrently (bounded
// by sc.workers, as RunVolanoMatrix does) and returns results in input
// order, so the tables stay deterministic.
func forEachParallel(n int, sc Scale, run func(i int, eng *sim.Engine) VolanoRun) []VolanoRun {
	out := make([]VolanoRun, n)
	forEachIndexParallel(n, sc, func(i int, eng *sim.Engine) { out[i] = run(i, eng) })
	return out
}

// numaVolanoConfig is the workload for the NUMA tables.
func numaVolanoConfig(rooms int, sc Scale) volano.Config {
	return volano.Config{
		Rooms:           rooms,
		MessagesPerUser: sc.Messages,
		Costs:           volano.ScalableStackCosts(),
	}
}

// Numa races every registered policy on a domained spec and reports how
// each treats the interconnect: total and cross-domain migrations
// (machine-observed), the balancer's own intra- versus cross-domain move
// counts where the policy tracks them (o1, cfs), lock spin, and throughput.
func Numa(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	domains := max(spec.Domains, 1)
	t := stats.NewTable(
		fmt.Sprintf("NUMA domains: VolanoMark %d rooms on %s (%d domains x %d CPUs)",
			rooms, spec.Label, domains, spec.CPUs/domains),
		"Scheduler", "Throughput", "spin cyc/sched", "migrations", "cross-dom",
		"remote Mcyc", "intra-steal", "cross-steal")
	runs := forEachParallel(len(Policies), sc, func(i int, eng *sim.Engine) VolanoRun {
		return RunVolanoConfigOn(eng, spec, Policies[i], numaVolanoConfig(rooms, sc), sc)
	})
	for i, policy := range Policies {
		r := runs[i]
		spin := 0.0
		if r.Stats.SchedCalls > 0 {
			spin = float64(r.Stats.SpinCycles) / float64(r.Stats.SchedCalls)
		}
		intra, cross := "-", "-"
		if r.HasSteals {
			intra = fmt.Sprintf("%d", r.IntraSteals)
			cross = fmt.Sprintf("%d", r.CrossSteals)
		}
		t.AddRow(policy,
			int(r.Result.Throughput),
			int(spin),
			r.Stats.Migrations,
			r.Stats.CrossDomainMigrations,
			int(r.Stats.RemoteCycles/1_000_000),
			intra,
			cross)
	}
	return t
}

// runO1Variant measures VolanoMark under a configured o1 scheduler on a
// spec — the harness for the topology ablation. It shares the machine
// construction and result harvesting with the per-policy Numa table, so
// the ablation baseline cannot drift from what it is compared against.
func runO1Variant(spec MachineSpec, cfg o1.Config, rooms int, sc Scale) VolanoRun {
	m := NewMachineWith(spec, func(env *sched.Env) sched.Scheduler {
		return o1.NewWithConfig(env, cfg)
	}, sc)
	return runVolanoOn(m, spec, O1, numaVolanoConfig(rooms, sc))
}

// RunO1Topology measures VolanoMark under o1 with or without domain
// awareness — the benchmark entry point for the topology ablation.
func RunO1Topology(spec MachineSpec, blind bool, rooms int, sc Scale) VolanoRun {
	return runO1Variant(spec, o1.Config{TopologyBlind: blind}, rooms, sc)
}

// AblateTopology isolates what o1's domain awareness buys on a NUMA spec:
// the same scheduler with the TopologyBlind flag set treats the machine
// as one flat domain, so the delta in cross-domain migrations,
// remote-access cycles, and throughput is the value of the hierarchy.
// The effect is largest at marginal load (a few rooms on 32 CPUs), where
// CPUs go idle often enough that the steal path runs constantly; at
// saturation the balancer barely fires and the variants converge.
func AblateTopology(spec MachineSpec, rooms int, sc Scale) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: o1 domain awareness (%s, %d rooms)", spec.Label, rooms),
		"o1 variant", "Throughput", "migrations", "cross-dom", "remote Mcyc", "cache Mcyc")
	variants := []bool{false, true}
	runs := forEachParallel(len(variants), sc, func(i int, _ *sim.Engine) VolanoRun {
		return runO1Variant(spec, o1.Config{TopologyBlind: variants[i]}, rooms, sc)
	})
	for i, blind := range variants {
		label := "domain-aware"
		if blind {
			label = "topology-blind"
		}
		r := runs[i]
		t.AddRow(label,
			int(r.Result.Throughput),
			r.Stats.Migrations,
			r.Stats.CrossDomainMigrations,
			int(r.Stats.RemoteCycles/1_000_000),
			int(r.Stats.CacheCycles/1_000_000))
	}
	return t
}
