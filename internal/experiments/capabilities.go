package experiments

// PolicyCap is one row of the policy capability table: what a scheduling
// policy promises (and is held to by the conformance suite), and what role
// it plays in the default experiment sweeps. The table is the single place
// a policy's standing changes — the conformance latency invariants read
// their budgets here, and cmd/sweep derives its default matrix policy set
// from the Baseline flag.
type PolicyCap struct {
	// LatencyBudgetQuanta bounds the worst observed wakeup-to-run latency
	// of a blocked-then-woken probe, as a fraction of a default-priority
	// hog's full quantum (conformance invariant (a)). Policies whose
	// designs promise better than the universal two-quanta floor are held
	// to their promise.
	LatencyBudgetQuanta float64

	// Baseline marks a retired baseline: the policy stays in the
	// registry, the conformance suite, the determinism regressions, and
	// remains selectable by name everywhere — but the default matrix and
	// wake-storm sweeps skip it, so it no longer taxes every PR's bench
	// regeneration. mq carries the flag: it has per-CPU queues like o1
	// but no interactivity story (its latency column collapses), so the
	// o1 rows already tell its scaling story with a better tail.
	Baseline bool
}

// BaseLatencyBudgetQuanta is the latency floor every policy must meet: a
// woken probe runs before any hog completes two full quanta.
const BaseLatencyBudgetQuanta = 2.0

// Caps is the capability table for every registered policy. A policy
// missing from the table gets the base latency budget and full default
// participation.
var Caps = map[string]PolicyCap{
	Reg:  {LatencyBudgetQuanta: 0.01}, // goodness preemption: tens of µs
	ELSC: {LatencyBudgetQuanta: BaseLatencyBudgetQuanta},
	Heap: {LatencyBudgetQuanta: 0.01}, // static-goodness heap: tens of µs
	MQ:   {LatencyBudgetQuanta: BaseLatencyBudgetQuanta, Baseline: true},
	O1:   {LatencyBudgetQuanta: 0.005}, // interactivity-aware: the tightest bar
	CFS:  {LatencyBudgetQuanta: 0.01},  // sleeper clamp + wake preemption: tens of µs
}

// LatencyBudget returns the policy's conformance latency budget in hog
// quanta.
func LatencyBudget(policy string) float64 {
	if c, ok := Caps[policy]; ok && c.LatencyBudgetQuanta > 0 {
		return c.LatencyBudgetQuanta
	}
	return BaseLatencyBudgetQuanta
}

// DefaultPolicies returns the registered policies minus retired baselines,
// in registry order — the set the default matrix/wakestorm sweeps run.
func DefaultPolicies() []string {
	out := make([]string, 0, len(Policies))
	for _, p := range Policies {
		if !Caps[p].Baseline {
			out = append(out, p)
		}
	}
	return out
}
