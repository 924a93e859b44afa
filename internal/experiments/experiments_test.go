package experiments

import (
	"strings"
	"testing"

	"elsc/internal/workload"
)

// tinyScale keeps the full-matrix tests fast.
func tinyScale() Scale {
	return Scale{Messages: 4, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// tinyRooms shrinks the room sweep.
var tinyRooms = []int{1, 2}

// tinyFigures is the paper's VolanoMark run set at the tiny rooms: the
// union of what figures 2-6 and the profile declare.
func tinyFigures() []Experiment {
	return []Experiment{Fig2(2), Fig3(tinyRooms), Fig4(1, 2), Fig5(2), Fig6(2), Profile(tinyRooms)}
}

func tinyMatrix(t *testing.T) []WorkloadRun {
	t.Helper()
	return RunCells(DistinctCells(tinyFigures()), tinyScale())
}

func TestMatrixCoversAllCells(t *testing.T) {
	runs := tinyMatrix(t)
	if len(runs) != 2*len(PaperSpecs)*len(tinyRooms) {
		t.Fatalf("matrix has %d cells", len(runs))
	}
	for _, policy := range []string{Reg, ELSC} {
		for _, spec := range PaperSpecs {
			for _, r := range tinyRooms {
				run := FindRun(runs, Volano(r).On(spec, policy))
				if run.Result.Ops == 0 {
					t.Fatalf("%s produced no deliveries", run.Key())
				}
			}
		}
	}
}

func TestMatrixDeterministicAcrossParallelism(t *testing.T) {
	sc1 := tinyScale()
	sc1.Parallel = 1
	sc4 := tinyScale()
	sc4.Parallel = 4
	cells := Fig3(tinyRooms).Cells
	a := RunCells(cells, sc1)
	b := RunCells(cells, sc4)
	for i := range a {
		if a[i].Result.Cycles != b[i].Result.Cycles {
			t.Fatalf("run %s differs across parallelism: %d vs %d",
				a[i].Key(), a[i].Result.Cycles, b[i].Result.Cycles)
		}
	}
}

func TestFig3ShapeELSCFlatRegDecays(t *testing.T) {
	// The paper's headline: reg throughput falls as rooms grow; ELSC
	// stays roughly flat. Use a wider spread for signal.
	sc := Scale{Messages: 8, Seed: 42, HorizonSeconds: 900}
	up := SpecByLabel("UP")
	thr := func(policy string, rooms int) float64 {
		return RunCell(nil, Volano(rooms).On(up, policy), sc).Result.Throughput
	}
	regScale := thr(Reg, 8) / thr(Reg, 2)
	elscScale := thr(ELSC, 8) / thr(ELSC, 2)
	if elscScale <= regScale {
		t.Fatalf("scaling: elsc %.2f should beat reg %.2f", elscScale, regScale)
	}
	if elscScale < 0.85 {
		t.Fatalf("elsc scaling %.2f should be near 1.0", elscScale)
	}
}

func TestFig5ShapeELSCCheaper(t *testing.T) {
	runs := tinyMatrix(t)
	for _, spec := range PaperSpecs {
		e := FindRun(runs, Volano(2).On(spec, ELSC)).Stats
		r := FindRun(runs, Volano(2).On(spec, Reg)).Stats
		if e.CyclesPerSchedule() >= r.CyclesPerSchedule() {
			t.Errorf("%s: elsc cyc/sched %.0f not below reg %.0f",
				spec.Label, e.CyclesPerSchedule(), r.CyclesPerSchedule())
		}
		if e.ExaminedPerSchedule() >= r.ExaminedPerSchedule() {
			t.Errorf("%s: elsc examined %.1f not below reg %.1f",
				spec.Label, e.ExaminedPerSchedule(), r.ExaminedPerSchedule())
		}
	}
}

func TestFigureTablesRender(t *testing.T) {
	runs := tinyMatrix(t)
	for _, e := range tinyFigures() {
		if out := e.Table(runs).Render(); len(strings.Split(out, "\n")) < 4 {
			t.Errorf("%s table too small:\n%s", e.Name, out)
		}
	}
}

func TestTable2Renders(t *testing.T) {
	tab := Table2().Run(tinyScale())
	if tab.NumRows() != 4 {
		t.Fatalf("Table 2 rows = %d, want 4", tab.NumRows())
	}
	out := tab.Render()
	for _, want := range []string{"Current - UP", "ELSC - UP", "Current - 2P", "ELSC - 2P"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing row %q:\n%s", want, out)
		}
	}
}

// TestTable2WithRenders: Table 2's compile is the registry's kbuild at
// the size Params gives it — the quick tree's 32 units in every cell.
func TestTable2WithRenders(t *testing.T) {
	e := Table2()
	runs := RunCells(e.Cells, tinyScale())
	if len(runs) != 4 {
		t.Fatalf("Table 2 cells = %d, want 4", len(runs))
	}
	for _, r := range runs {
		if r.Load != workload.KBuild || r.Variant != "" {
			t.Fatalf("%s: want the registry's %s", r.Key(), workload.KBuild)
		}
		if r.Result.Ops != 32 {
			t.Fatalf("%s compiled %d units, want the quick tree's 32", r.Key(), r.Result.Ops)
		}
	}
	if tab := e.Table(runs); tab.NumRows() != 4 {
		t.Fatalf("Table 2 (Params-sized) rows = %d, want 4", tab.NumRows())
	}
}

func TestAltSchedulersTable(t *testing.T) {
	tab := AltSchedulers(SpecByLabel("2P"), 1).Run(tinyScale())
	out := tab.Render()
	for _, want := range Policies {
		if !strings.Contains(out, want) {
			t.Fatalf("alternatives table missing %q:\n%s", want, out)
		}
	}
}

func TestLockContentionTable(t *testing.T) {
	tab := LockContention(SpecByLabel("2P"), 1).Run(tinyScale())
	out := tab.Render()
	for _, want := range Policies {
		if !strings.Contains(out, want) {
			t.Fatalf("lock table missing %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != len(Policies) {
		t.Fatalf("lock table rows = %d, want %d", tab.NumRows(), len(Policies))
	}
}

func TestWebserverTable(t *testing.T) {
	tab := Webserver(SpecByLabel("2P")).Run(tinyScale())
	if tab.NumRows() != 2 {
		t.Fatalf("webserver table rows = %d, want 2", tab.NumRows())
	}
}

// TestWebserverWithTable: the web experiment's offered load is the
// registry's webserver at the size Params gives it — the quick 2000
// requests, each served or dropped.
func TestWebserverWithTable(t *testing.T) {
	e := Webserver(SpecByLabel("2P"))
	runs := RunCells(e.Cells, tinyScale())
	for _, r := range runs {
		if r.Load != workload.WebServer || r.Variant != "" {
			t.Fatalf("%s: want the registry's %s", r.Key(), workload.WebServer)
		}
		dropped, _ := r.Result.Extra("dropped")
		if got := r.Result.Ops + uint64(dropped); got != 2000 {
			t.Fatalf("%s: served+dropped = %d, want the quick 2000 requests", r.Key(), got)
		}
	}
	if tab := e.Table(runs); tab.NumRows() != 2 {
		t.Fatalf("webserver table (Params-sized) rows = %d, want 2", tab.NumRows())
	}
}

func TestAblationTables(t *testing.T) {
	sc := tinyScale()
	if got := AblateSearchLimit(SpecByLabel("1P"), 1, []int{1, 5}).Run(sc); got.NumRows() != 2 {
		t.Fatal("search-limit ablation rows")
	}
	if got := AblateTableSize(SpecByLabel("1P"), 1, []int{15, 30}).Run(sc); got.NumRows() != 2 {
		t.Fatal("table-size ablation rows")
	}
	if got := AblateUPShortcut(1).Run(sc); got.NumRows() != 2 {
		t.Fatal("up-shortcut ablation rows")
	}
}

func TestFactoryNames(t *testing.T) {
	for _, name := range Policies {
		m := NewMachineOn(nil, SpecByLabel("1P"), name, tinyScale())
		if m.Scheduler().Name() != name {
			t.Fatalf("factory %q built scheduler %q", name, m.Scheduler().Name())
		}
	}
}

func TestFindPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FindRun on empty runs should panic")
		}
	}()
	FindRun(nil, Volano(5).On(SpecByLabel("UP"), Reg))
}

// TestSpecTopologyBuiltOnce: a registered NUMA spec hands every machine
// the one immutable layout it was registered with; flat specs have none;
// and a spec edited after the fact gets a layout that matches its fields.
func TestSpecTopologyBuiltOnce(t *testing.T) {
	numa := SpecByLabel("32P-NUMA")
	if a, b := numa.Topology(), SpecByLabel("32P-NUMA").Topology(); a == nil || a != b {
		t.Fatalf("32P-NUMA topologies %p and %p, want one shared layout", a, b)
	}
	if SpecByLabel("8P").Topology() != nil {
		t.Fatal("a flat spec has no topology")
	}
	numa.CPUs, numa.Domains = 16, 2
	if topo := numa.Topology(); topo.NumCPU() != 16 || topo.NumDomains() != 2 {
		t.Fatalf("edited spec got layout %v, want 16cpu/2dom", topo)
	}
	if topo := (MachineSpec{Label: "x", CPUs: 4, SMP: true, Domains: 2}).Topology(); topo.String() != "4cpu/2dom" {
		t.Fatalf("literal spec got layout %v", topo)
	}
}
