package kernel_test

import (
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/workload"
)

// TestCheckDeliveryEveryEvent steps a VolanoMark cell one event at a time
// under every policy on 4P and 32P-NUMA and audits the delivery masks,
// counts and rule after each event (Machine.Run consults its stop
// function between any two events).
func TestCheckDeliveryEveryEvent(t *testing.T) {
	sc := experiments.QuickScale()
	for _, label := range []string{"4P", "32P-NUMA"} {
		for _, policy := range experiments.Policies {
			label, policy := label, policy
			t.Run(label+"/"+policy, func(t *testing.T) {
				spec := experiments.SpecByLabel(label)
				m := experiments.NewMachineOn(nil, spec, policy, sc)
				inst := workload.Build(workload.Volano, m, experiments.WorkloadParams(spec, sc))
				events := 0
				m.Run(func() bool {
					if err := m.CheckDelivery(); err != nil {
						t.Fatalf("after event %d (t=%d): %v", events, m.Now(), err)
					}
					events++
					return inst.Done()
				})
				if !inst.Done() {
					t.Fatalf("cell incomplete after %d events", events)
				}
				if n := m.Stats().IdleTickRescues; n != 0 {
					t.Fatalf("%d idle-tick rescues", n)
				}
			})
		}
	}
}
