package conformance

// The capability table (sched.Ops): which optional capabilities each
// policy declares, that the kernel resolves them from the value the
// factory returned (a decorator's override, not the policy under it), and
// that a hot policy switch re-resolves them.

import (
	"reflect"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// opsFields lists the fields of ops that are set, in declaration order.
func opsFields(ops sched.Ops) []string {
	v := reflect.ValueOf(ops)
	var set []string
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsNil() {
			set = append(set, v.Type().Field(i).Name)
		}
	}
	return set
}

// TestOpsOfPolicies pins which capabilities each registered policy
// declares. A policy that gains or loses one is a deliberate edit here.
func TestOpsOfPolicies(t *testing.T) {
	want := map[string][]string{
		experiments.Reg:  {"NoteRunning"},
		experiments.ELSC: {"Dump"},
		experiments.Heap: nil,
		experiments.MQ:   nil,
		experiments.O1:   {"Dynamic", "Steals", "Bonus"},
		experiments.CFS:  {"Dynamic", "Steals"},
	}
	if len(want) != len(experiments.Policies) {
		t.Fatalf("table covers %d policies, the registry has %d", len(want), len(experiments.Policies))
	}
	for _, name := range experiments.Policies {
		s := experiments.Factory(name)(sched.NewEnv(4, true, nil))
		if got := opsFields(sched.OpsOf(s)); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s: OpsOf sets %v, want %v", name, got, want[name])
		}
	}
}

// countedO1 is a decorator in the shape of a timing wrapper: it embeds the
// policy and overrides one capability method.
type countedO1 struct {
	*o1.Sched
	placeWakes uint64
}

func (c *countedO1) PlaceWake(t *task.Task, cpu int) bool {
	c.placeWakes++
	return c.Sched.PlaceWake(t, cpu)
}

// TestOpsReachesDecoratorPlaceWake runs a 32P-NUMA chat cell under a
// decorated o1 and checks the kernel's SD_WAKE_IDLE offers reached the
// decorator's PlaceWake, not only the o1 method it embeds: every accepted
// placement is one call, so the override must count at least that many. A
// table the bare policy built for itself would bind o1's own PlaceWake and
// leave the count at zero.
func TestOpsReachesDecoratorPlaceWake(t *testing.T) {
	dec := &countedO1{}
	cell := experiments.Load(workload.Volano).On(experiments.SpecByLabel("32P-NUMA"), experiments.O1).
		Tuned("counted PlaceWake", func(env *sched.Env) sched.Scheduler {
			dec.Sched = o1.New(env)
			return dec
		})
	run := experiments.RunCell(nil, cell, experiments.QuickScale())
	placed := run.Stats.WakeIdlePlacements
	if placed == 0 {
		t.Fatal("the cell made no SD_WAKE_IDLE placement; it cannot tell whose PlaceWake ran")
	}
	if dec.placeWakes < placed {
		t.Fatalf("decorator's PlaceWake ran %d times, the kernel placed %d wakes", dec.placeWakes, placed)
	}
}

// TestOpsFollowsSwitchPolicy checks that Machine.Ops is re-resolved at
// every hot policy switch: o1 → reg → cfs flips the table each time.
func TestOpsFollowsSwitchPolicy(t *testing.T) {
	m := experiments.NewMachineOn(nil, experiments.SpecByLabel("8P"), experiments.O1, experiments.QuickScale())
	for i, step := range []struct {
		policy string
		want   []string
	}{
		{experiments.O1, []string{"Dynamic", "Steals", "Bonus"}},
		{experiments.Reg, []string{"NoteRunning"}},
		{experiments.CFS, []string{"Dynamic", "Steals"}},
	} {
		if i > 0 {
			m.SwitchPolicy(experiments.Factory(step.policy))
		}
		if got := opsFields(m.Ops()); !reflect.DeepEqual(got, step.want) {
			t.Errorf("under %s: Ops sets %v, want %v", m.Scheduler().Name(), got, step.want)
		}
	}
}
