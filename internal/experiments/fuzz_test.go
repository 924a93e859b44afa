package experiments

import (
	"fmt"
	"strings"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/workload"
)

// FuzzScenario is the whole-machine scenario fuzzer: each seed derives a
// deterministic composition of workload, machine spec, starting policy,
// and mid-run injections (hot policy swaps, affinity/priority churn,
// fork storms), runs it, and audits task conservation throughout. Run
// with `go test -fuzz=FuzzScenario ./internal/experiments/` to hunt;
// any failing seed is a complete reproduction by itself.
func FuzzScenario(f *testing.F) {
	for _, seed := range RegressionSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		s := GenScenario(seed)
		if _, err := RunScenario(s); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFuzzRegressionScenarios replays every pinned seed as an ordinary
// test, so the regression corpus runs on every `go test` without the
// fuzz engine.
func TestFuzzRegressionScenarios(t *testing.T) {
	for _, seed := range RegressionSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			if _, err := RunScenario(GenScenario(seed)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFuzzScenarioDeterministic runs one injection-heavy scenario twice
// and requires byte-identical digests: swaps, churn, and fork storms are
// all pure virtual-time behavior, so a digest divergence means hidden
// host state leaked into the simulation.
func TestFuzzScenarioDeterministic(t *testing.T) {
	// Find a seed whose scenario actually swaps (the generator leaves
	// some scenarios injection-free on purpose).
	var s Scenario
	for seed := int64(1); ; seed++ {
		s = GenScenario(seed)
		if len(s.Swaps) > 0 && len(s.Forks) > 0 {
			break
		}
	}
	a, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("scenario %s digests diverged between identical runs:\n--- run 1\n%s\n--- run 2\n%s",
			s, a.Digest, b.Digest)
	}
	if a.Migrated == 0 {
		t.Fatalf("scenario %s swapped policies but migrated no tasks", s)
	}
}

// TestFuzzZeroInjectionMatchesPlainDigest is the harness-honesty check:
// a scenario with no injections must reproduce the plain (non-fuzzed)
// run byte for byte — same result struct, same stats registry, same
// event count. If the fuzz harness perturbs the machine at all (an extra
// engine event, a stray RNG draw), this catches it. The reference
// machine carries the same watchdog arming as every fuzz machine — the
// watchdog sweeps are part of the run's event stream, but a clean run's
// violation counters must all render as zero.
func TestFuzzZeroInjectionMatchesPlainDigest(t *testing.T) {
	const seed = 7
	for _, policy := range Policies {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			s := Scenario{Seed: seed, Spec: "2P", Load: workload.Volano, Policy: policy}
			rep, err := RunScenario(s)
			if err != nil {
				t.Fatal(err)
			}
			spec := SpecByLabel(s.Spec)
			sc := fuzzScale(seed)
			cfg := machineConfig(nil, spec, Factory(policy), sc)
			cfg.Watchdog = &kernel.WatchdogConfig{}
			m := kernel.NewMachine(cfg)
			res := workload.Build(s.Load, m, WorkloadParams(spec, sc)).Run()
			plain := fmt.Sprintf("%+v\n%s", res, m.Stats().Registry().Render())
			if rep.Digest != plain {
				t.Fatalf("zero-injection scenario diverged from the plain run:\n--- fuzz\n%s\n--- plain\n%s",
					rep.Digest, plain)
			}
			for _, line := range []string{"watchdog_starvations 0", "watchdog_invariant_faults 0"} {
				if !strings.Contains(rep.Digest, line) {
					t.Fatalf("clean run's digest missing %q:\n%s", line, rep.Digest)
				}
			}
		})
	}
}

// seed586Scenario is the composition GenScenario(586) produced when the
// fuzzer caught the mq cross-queue recalc starvation, frozen as a
// literal: the generator draws policies by Policies index, so growing
// the registry (cfs was the sixth) re-rolls every seed — the regression
// must not evaporate because the draw moved.
var seed586Scenario = Scenario{
	Seed:   586,
	Spec:   "4P",
	Load:   "latency",
	Policy: Reg,
	Swaps:  []SwapPoint{{At: 288, To: MQ}},
	Churns: []ChurnPoint{
		{At: 486, Victim: 12, Mask: 0x1},
		{At: 330, Victim: 62, Mask: 0x0},
		{At: 668, Victim: 22, Mask: 0x1},
	},
	Hotplugs: []HotplugPoint{{At: 195, BackAt: 375, CPU: 19}},
}

// TestSeed586ScenarioRunsClean replays the pinned seed-586 scenario — the
// reg->mq swap under which mq's old recalc-on-local-exhaustion starved a
// never-run probe for the whole 600-second horizon — against the shipped
// mq, watchdog armed: it must complete with every invariant holding.
func TestSeed586ScenarioRunsClean(t *testing.T) {
	rep, err := RunScenario(seed586Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated == 0 || rep.Offlined == 0 {
		t.Fatalf("seed 586 replay skipped its swap or hotplug: migrated=%d offlined=%d", rep.Migrated, rep.Offlined)
	}
}

// TestFuzzHotplugSeedsExerciseStorms pins that the hotplug-bearing
// regression seeds actually perform offline→online cycles (a generator
// change that quietly stops drawing hotplugs would otherwise leave the
// storm path untested).
func TestFuzzHotplugSeedsExerciseStorms(t *testing.T) {
	hot := 0
	for _, seed := range RegressionSeeds {
		s := GenScenario(seed)
		if len(s.Hotplugs) == 0 {
			continue
		}
		rep, err := RunScenario(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Offlined > 0 {
			hot++
			if rep.Onlined == 0 && uint64(rep.Offlined) != 0 {
				// An offline with no matching online means BackAt landed
				// past workload completion — legal, but at least one
				// pinned seed must complete a full cycle.
				continue
			}
		}
	}
	if hot < 2 {
		t.Fatalf("only %d regression seeds exercised hotplug storms; pin more seeds", hot)
	}
}

// TestSwitchPolicyLiveMachine drives a kernel-level swap chain through
// every registered policy while a workload runs: reg -> elsc -> heap ->
// mq -> o1 -> reg, five ticks apart. The workload must still complete,
// every swap must migrate coherently (RunScenario's own audits), and the
// swap counter must reach the stats registry.
func TestSwitchPolicyLiveMachine(t *testing.T) {
	s := Scenario{
		Seed: 11, Spec: "4P", Load: workload.Volano, Policy: Reg,
		Swaps: []SwapPoint{
			{At: 100, To: ELSC},
			{At: 250, To: Heap},
			{At: 400, To: MQ},
			{At: 550, To: O1},
			{At: 700, To: Reg},
		},
	}
	rep, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated == 0 {
		t.Fatal("five swaps migrated no tasks")
	}
	if !strings.Contains(rep.Digest, "policy_switches") {
		t.Fatal("policy_switches missing from the stats registry")
	}
}
