package experiments

import (
	"fmt"
	"strings"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// traceRun executes a short VolanoMark under policy with a schedtrace-style
// trace attached and returns the rendered trace, the final machine stats,
// and the /proc-style registry dump.
func traceRun(policy string, seed int64) (string, kernel.Stats, string) {
	var buf strings.Builder
	m := kernel.NewMachine(kernel.Config{
		CPUs: 2, SMP: true, Seed: seed,
		NewScheduler: Factory(policy),
		MaxCycles:    600 * kernel.DefaultHz,
		Trace: func(ev kernel.TraceEvent) {
			next := "idle"
			if ev.Next != nil {
				next = ev.Next.String()
			}
			fmt.Fprintf(&buf, "t=%d cpu%d %s -> %s examined=%d cycles=%d spin=%d recalcs=%d\n",
				ev.Now, ev.CPU, ev.Prev.String(), next, ev.Examined, ev.Cycles, ev.Spin, ev.Recalcs)
		},
	})
	m.Run(volano.Build(m, volano.Config{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 2}).Done)
	return buf.String(), *m.Stats(), m.Stats().Registry().Render()
}

// TestScheduleTraceDeterminism guards the doc.go promise that a machine's
// Seed reproduces a run cycle-for-cycle: for every scheduler, two machines
// built from the same seed must emit byte-identical schedule() traces and
// identical statistics.
func TestScheduleTraceDeterminism(t *testing.T) {
	for _, policy := range Policies {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			trace1, stats1, proc1 := traceRun(policy, 7)
			trace2, stats2, proc2 := traceRun(policy, 7)
			if trace1 != trace2 {
				t.Fatalf("same seed produced different schedtrace output (%d vs %d bytes)",
					len(trace1), len(trace2))
			}
			if trace1 == "" {
				t.Fatal("trace is empty; the run did nothing")
			}
			if stats1 != stats2 {
				t.Fatalf("same seed produced different stats:\n%+v\nvs\n%+v", stats1, stats2)
			}
			if proc1 != proc2 {
				t.Fatal("same seed produced different /proc registry output")
			}
		})
	}
}

// TestSeedChangesTrace is the control: a different seed must actually
// change the schedule() sequence, or the determinism test proves nothing.
func TestSeedChangesTrace(t *testing.T) {
	trace1, _, _ := traceRun(Reg, 7)
	trace2, _, _ := traceRun(Reg, 8)
	if trace1 == trace2 {
		t.Fatal("different seeds produced identical traces; the workload ignores the seed")
	}
}

// workloadDigest runs one registered workload under one policy at quick
// scale with a fixed seed and renders a stable digest: the full common
// result (throughput, ops, extras) plus the machine's /proc-style stats
// registry.
func workloadDigest(load, policy string, seed int64) string {
	sc := Scale{Messages: 2, Seed: seed, HorizonSeconds: 600, Quick: true}
	spec := MachineSpec{Label: "2P", CPUs: 2, SMP: true}
	m := NewMachineOn(nil, spec, policy, sc)
	res := workload.Build(load, m, WorkloadParams(spec, sc)).Run()
	return fmt.Sprintf("%+v\n%s", res, m.Stats().Registry().Render())
}

// TestWorkloadDeterminism extends the schedtrace determinism guard across
// the whole registry: every registered workload under every registered
// policy, run twice from the same seed at quick scale, must produce a
// byte-identical stats digest. A workload that consults unforked RNG
// state, wall time, or map iteration order fails here before it can make
// any matrix table nondeterministic.
func TestWorkloadDeterminism(t *testing.T) {
	for _, load := range workload.Names() {
		for _, policy := range Policies {
			load, policy := load, policy
			t.Run(load+"/"+policy, func(t *testing.T) {
				t.Parallel()
				d1 := workloadDigest(load, policy, 7)
				d2 := workloadDigest(load, policy, 7)
				if d1 != d2 {
					t.Fatalf("same seed produced different digests (%d vs %d bytes)",
						len(d1), len(d2))
				}
				if d1 == "" {
					t.Fatal("empty digest; the run did nothing")
				}
			})
		}
	}
}

// TestWorkloadSeedControl: the digest must respond to the seed, or the
// determinism test above proves nothing.
func TestWorkloadSeedControl(t *testing.T) {
	if workloadDigest(workload.DB, O1, 7) == workloadDigest(workload.DB, O1, 8) {
		t.Fatal("different seeds produced identical db digests")
	}
}

// TestDeterminismDigestCoversInteractivityCounters: the /proc-style
// registry that feeds every determinism digest must carry the new
// wake-placement and granularity counters — otherwise a nondeterministic
// interactivity path could slip past the byte-identical checks above.
func TestDeterminismDigestCoversInteractivityCounters(t *testing.T) {
	_, _, proc := traceRun(O1, 7)
	for _, key := range []string{"wake_idle_placements", "timeslice_rotations"} {
		if !strings.Contains(proc, key) {
			t.Fatalf("registry digest missing %q:\n%s", key, proc)
		}
	}
}

// TestBonusCountersDeterministic extends the guard to the estimator's
// own counters, which live in the scheduler rather than kernel stats:
// same seed, same bonus distribution and requeue count.
func TestBonusCountersDeterministic(t *testing.T) {
	run := func() WorkloadRun {
		sc := Scale{Messages: 2, Seed: 7, HorizonSeconds: 600, Quick: true}
		return RunCell(nil, Load(workload.Latency).On(SpecByLabel("2P"), O1), sc)
	}
	a, b := run(), run()
	if a.BonusLevels == nil || b.BonusLevels == nil {
		t.Fatal("o1 runs did not expose bonus counters")
	}
	if fmt.Sprint(a.BonusLevels) != fmt.Sprint(b.BonusLevels) ||
		a.InteractiveRequeues != b.InteractiveRequeues {
		t.Fatalf("same seed produced different estimator counters:\n%v/%d\nvs\n%v/%d",
			a.BonusLevels, a.InteractiveRequeues, b.BonusLevels, b.InteractiveRequeues)
	}
}
