package elsc_test

import (
	"fmt"
	"testing"

	"elsc"
	"elsc/internal/experiments"
)

// TestCrossSchedulerSmoke runs a short VolanoMark on 1, 2, 4 and 8
// processors under every scheduler and checks that messages flow and no
// room starves (every expected delivery arrives before the horizon). It
// exists to catch wiring mistakes when a future scheduler is registered:
// a policy that loses tasks, deadlocks a queue, or mishandles affinity
// fails here before any figure is regenerated.
func TestCrossSchedulerSmoke(t *testing.T) {
	const (
		rooms    = 2
		users    = 4
		messages = 2
	)
	want := uint64(rooms * users * users * messages)
	// Scheduler kind strings are the policy names of the experiments
	// registry, so iterating it keeps this smoke test — like the
	// conformance and determinism suites — in lockstep with the lineup.
	for _, policy := range experiments.Policies {
		kind := elsc.SchedulerKind(policy)
		for _, cpus := range []int{1, 2, 4, 8} {
			kind, cpus := kind, cpus
			t.Run(fmt.Sprintf("%s/%dcpu", kind, cpus), func(t *testing.T) {
				t.Parallel()
				m := elsc.NewMachine(elsc.MachineConfig{
					CPUs:       cpus,
					SMP:        cpus > 1,
					Scheduler:  kind,
					Seed:       5,
					MaxSeconds: 600,
				})
				res := m.RunVolanoMark(elsc.VolanoConfig{
					Rooms: rooms, UsersPerRoom: users, MessagesPerUser: messages,
				})
				if res.Throughput <= 0 {
					t.Fatalf("throughput = %v, want > 0", res.Throughput)
				}
				if res.Ops != want {
					t.Fatalf("deliveries = %d, want %d (a room starved before the horizon)",
						res.Ops, want)
				}
				if name := m.SchedulerName(); name != string(kind) {
					t.Fatalf("scheduler name = %q, want %q", name, kind)
				}
			})
		}
	}
}

// TestCrossSchedulerSmokeNUMA repeats the smoke bar on a 32-processor
// machine with four cache domains, through the public CacheDomains knob:
// every policy must still deliver every message when migrations can cross
// an interconnect.
func TestCrossSchedulerSmokeNUMA(t *testing.T) {
	const (
		rooms    = 2
		users    = 4
		messages = 2
	)
	want := uint64(rooms * users * users * messages)
	for _, policy := range experiments.Policies {
		kind := elsc.SchedulerKind(policy)
		t.Run(fmt.Sprintf("%s/32cpu-4dom", kind), func(t *testing.T) {
			t.Parallel()
			m := elsc.NewMachine(elsc.MachineConfig{
				CPUs:         32,
				SMP:          true,
				CacheDomains: 4,
				Scheduler:    kind,
				Seed:         5,
				MaxSeconds:   600,
			})
			res := m.RunVolanoMark(elsc.VolanoConfig{
				Rooms: rooms, UsersPerRoom: users, MessagesPerUser: messages,
			})
			if res.Ops != want {
				t.Fatalf("deliveries = %d, want %d (a room starved on the NUMA machine)",
					res.Ops, want)
			}
		})
	}
}
