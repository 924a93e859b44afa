package experiments

import (
	"reflect"
	"strings"
	"testing"

	"elsc/internal/workload"
)

// matrixScale keeps the generic-matrix tests fast: Quick shapes with a
// tiny per-actor work count.
func matrixScale() Scale {
	return Scale{Messages: 2, Seed: 42, HorizonSeconds: 600, Quick: true}
}

func TestWorkloadMatrixCoversAllCells(t *testing.T) {
	policies := []string{Reg, O1}
	specs := []MachineSpec{SpecByLabel("2P")}
	loads := []string{workload.Volano, workload.DB}
	runs := RunWorkloadMatrix(policies, specs, loads, matrixScale())
	if len(runs) != len(policies)*len(specs)*len(loads) {
		t.Fatalf("matrix has %d cells, want %d", len(runs), len(policies)*len(specs)*len(loads))
	}
	for _, p := range policies {
		for _, l := range loads {
			r := FindRun(runs, Load(l).On(SpecByLabel("2P"), p))
			if r.Result.Ops == 0 {
				t.Fatalf("%s produced no operations", r.Key())
			}
			if !r.Result.Complete {
				t.Fatalf("%s did not complete", r.Key())
			}
			if r.Stats.SchedCalls == 0 {
				t.Fatalf("%s harvested empty machine stats", r.Key())
			}
		}
	}
}

// TestWorkloadMatrixDeterministicAcrossParallelism runs the same matrix
// serially and with a 4-wide worker pool and requires every cell to be
// identical in full — the whole run record: workload result, machine
// stats, estimator counters — and in cell order. Run under -race this is
// also the data-race check on the parallel sweep path.
func TestWorkloadMatrixDeterministicAcrossParallelism(t *testing.T) {
	sc1 := matrixScale()
	sc1.Parallel = 1
	sc4 := matrixScale()
	sc4.Parallel = 4
	policies := []string{Reg, O1}
	loads := []string{workload.DB, workload.WakeStorm}
	a := RunWorkloadMatrix(policies, []MachineSpec{SpecByLabel("2P")}, loads, sc1)
	b := RunWorkloadMatrix(policies, []MachineSpec{SpecByLabel("2P")}, loads, sc4)
	if len(a) != len(b) {
		t.Fatalf("matrix size differs across parallelism: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("cell order differs across parallelism at %d: %s vs %s",
				i, a[i].Key(), b[i].Key())
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("cell %s differs across parallelism:\n--- serial\n%+v\n--- parallel\n%+v",
				a[i].Key(), a[i], b[i])
		}
	}
}

func TestMatrixTableShape(t *testing.T) {
	policies := []string{Reg, ELSC}
	spec := SpecByLabel("2P")
	loads := []string{workload.Volano, workload.KBuild, workload.DB}
	tab := MatrixTable(spec, policies, loads).Run(matrixScale())
	out := tab.Render()
	if tab.NumRows() != len(policies) {
		t.Fatalf("matrix table rows = %d, want %d", tab.NumRows(), len(policies))
	}
	for _, want := range []string{"volano (msgs/s)", "kbuild (units/s)", "db (txns/s)", "reg", "elsc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("matrix table missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadDetailIncludesExtras(t *testing.T) {
	policies := []string{Reg, O1}
	spec := SpecByLabel("2P")
	tab := WorkloadDetail(spec, policies, workload.WakeStorm).Run(matrixScale())
	out := tab.Render()
	for _, want := range []string{"p50_us", "p99_us", "max_us"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wakestorm detail missing column %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != 2 {
		t.Fatalf("detail rows = %d, want 2", tab.NumRows())
	}
}

// TestWakeStormTableAllPolicies is the acceptance check: the wake-storm
// experiment reports p50/p99 wakeup-to-run latency for every default
// (non-baseline) policy on the NUMA spec — retired baselines stay out of
// the default sweep per the policy table, but remain runnable by
// name. The scale is tiny; the sweep runs it big.
func TestWakeStormTableAllPolicies(t *testing.T) {
	def := DefaultPolicies()
	tab := WorkloadDetail(SpecByLabel("32P-NUMA"), def, workload.WakeStorm).Run(matrixScale())
	out := tab.Render()
	if tab.NumRows() != len(def) {
		t.Fatalf("wakestorm table rows = %d, want %d", tab.NumRows(), len(def))
	}
	for _, p := range def {
		if !strings.Contains(out, p) {
			t.Fatalf("wakestorm table missing policy %q:\n%s", p, out)
		}
	}
	for _, col := range []string{"p50_us", "p99_us"} {
		if !strings.Contains(out, col) {
			t.Fatalf("wakestorm table missing %q:\n%s", col, out)
		}
	}
}

// TestDefaultPoliciesExcludeBaselines pins the demotion: mq is a retired
// baseline — registered, conformance-covered, selectable by name — but
// absent from the default sweep set, and every default policy is still a
// registered one.
func TestDefaultPoliciesExcludeBaselines(t *testing.T) {
	def := DefaultPolicies()
	for _, p := range def {
		if policyNamed(p).baseline {
			t.Fatalf("baseline policy %q in DefaultPolicies", p)
		}
		if Factory(p) == nil {
			t.Fatalf("default policy %q has no factory", p)
		}
	}
	if len(def) >= len(Policies) {
		t.Fatal("no policy is demoted; the baseline mechanism is dead code")
	}
	found := false
	for _, p := range Policies {
		if p == MQ {
			found = true
		}
	}
	if !found {
		t.Fatal("mq must stay registered (conformance + determinism coverage)")
	}
	if !policyNamed(MQ).baseline {
		t.Fatal("mq should carry the Baseline flag (no interactivity story)")
	}
}

func TestWorkloadParamsScalableStackPastPaperHardware(t *testing.T) {
	sc := matrixScale()
	if WorkloadParams(SpecByLabel("4P"), sc).ScalableStack {
		t.Fatal("paper-era machine should keep the 2.3 serialized stack")
	}
	for _, label := range []string{"16P", "32P-NUMA", "64P-NUMA"} {
		if !WorkloadParams(SpecByLabel(label), sc).ScalableStack {
			t.Fatalf("%s should use the scalable stack", label)
		}
	}
}

// TestFindWorkloadPanicsOnMissing: a run set that holds the registry cell
// does not answer for its neighbours — another policy, or an
// explicit-config variant of the same workload.
func TestFindWorkloadPanicsOnMissing(t *testing.T) {
	up := SpecByLabel("UP")
	runs := []WorkloadRun{{CellID: Load(workload.Volano).On(up, Reg).CellID}}
	for _, missing := range []Cell{Load(workload.Volano).On(up, ELSC), Volano(5).On(up, Reg)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("FindRun(%s) on a run set without it should panic", missing.Key())
				}
			}()
			FindRun(runs, missing)
		}()
	}
}
