package experiments

import (
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/heapsched"
	"elsc/internal/sched/mq"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
)

// Policy names, as the paper's figures label them.
const (
	Reg  = "reg"
	ELSC = "elsc"
	Heap = "heap"
	MQ   = "mq"
	O1   = "o1"
	CFS  = "cfs"
)

// policyRow is one registered scheduling policy: its name, its
// constructor, and its standing. The table below is the one place a policy
// is declared: Factory builds every machine booted by name from it (the
// experiment cells, the CLIs, the public elsc.NewMachine), the
// conformance latency suite reads its budget, and the default sweeps its
// baseline flag.
type policyRow struct {
	name string
	new  kernel.SchedulerFactory
	// latencyBudget bounds the worst observed wakeup-to-run latency of a
	// blocked-then-woken probe, in full quanta of a default-priority hog
	// (conformance invariant (a)). Every policy meets two quanta; those
	// whose designs promise better are held to their promise.
	latencyBudget float64
	// baseline marks a retired baseline: registered, held to the
	// conformance suite and the determinism regressions, selectable by
	// name everywhere, but skipped by the default matrix and wake-storm
	// sweeps. mq carries it: it has per-CPU queues like o1 but no
	// interactivity story (its latency column collapses), so the o1 rows
	// already tell its scaling story with a better tail.
	baseline bool
}

// policyTable lists every registered policy in registry order: the
// paper's two, the §8 future-work designs, the O(1) endpoint of that
// lineage, and the weighted-vruntime fair scheduler that succeeded it.
var policyTable = []policyRow{
	// Goodness preemption: tens of µs.
	{Reg, func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }, 0.01, false},
	{ELSC, func(env *sched.Env) sched.Scheduler { return elsc.New(env) }, 2, false},
	// Static-goodness heap: tens of µs.
	{Heap, func(env *sched.Env) sched.Scheduler { return heapsched.New(env) }, 0.01, false},
	{MQ, func(env *sched.Env) sched.Scheduler { return mq.New(env) }, 2, true},
	// Interactivity-aware: the tightest bar.
	{O1, func(env *sched.Env) sched.Scheduler { return o1.New(env) }, 0.005, false},
	// Sleeper clamp and wake preemption: tens of µs.
	{CFS, func(env *sched.Env) sched.Scheduler { return cfs.New(env) }, 0.01, false},
}

// Policies lists every registered policy's name, in table order. The
// conformance, determinism, and cross-scheduler smoke suites all iterate
// it, so a policy added to the table (with a matching SchedulerKind in the
// public API) is automatically held to the same contract. Note the fuzz
// generator draws `Policies[rng.Intn(len(Policies))]`, so growing the
// table re-rolls every seed's composition — any regression that depends
// on a specific historical composition must pin the Scenario as a literal
// (see the seed-586 pre-fix replay).
var Policies = func() []string {
	names := make([]string, len(policyTable))
	for i, p := range policyTable {
		names[i] = p.name
	}
	return names
}()

// policyNamed returns the named policy's row. An unknown name is a bug in
// the caller: a name from a command line is checked with CheckName first.
func policyNamed(name string) policyRow {
	for _, p := range policyTable {
		if p.name == name {
			return p
		}
	}
	panic("experiments: unknown scheduler " + name)
}

// Factory returns the scheduler factory for a policy name.
func Factory(name string) kernel.SchedulerFactory { return policyNamed(name).new }

// LatencyBudget returns the policy's conformance latency budget in hog
// quanta.
func LatencyBudget(name string) float64 { return policyNamed(name).latencyBudget }

// DefaultPolicies returns the registered policies minus retired baselines,
// in table order — the set the default matrix and wake-storm sweeps run.
func DefaultPolicies() []string {
	out := make([]string, 0, len(policyTable))
	for _, p := range policyTable {
		if !p.baseline {
			out = append(out, p.name)
		}
	}
	return out
}
