package experiments

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"elsc/internal/sched/elsc"
	"elsc/internal/workload"
)

// tinyCatalog is everything `sweep -exp all` declares, at its default
// matrix selection.
func tinyCatalog() []Experiment {
	return Catalog(DefaultPolicies(), []MachineSpec{SpecByLabel("8P"), SpecByLabel("32P-NUMA")}, workload.Names())
}

// catalogPasses memoizes one run of the whole catalog per pool width, at
// a tiny scale with NO_HZ off: three tests read the same two passes.
var catalogPasses [3]struct {
	once sync.Once
	runs []WorkloadRun
}

func catalogRuns(parallel int) []WorkloadRun {
	p := &catalogPasses[parallel]
	p.once.Do(func() {
		sc := Scale{Messages: 1, Seed: 42, HorizonSeconds: 600, Quick: true, TicklessOff: true, Parallel: parallel}
		p.runs = RunCells(DistinctCells(tinyCatalog()), sc)
	})
	return p.runs
}

// TestCatalogHonoursTicklessOff: every experiment's machines come from the
// one builder, so a Scale knob reaches every cell — the ablation arms
// included, which once wrote their own kernel.Config and dropped it.
func TestCatalogHonoursTicklessOff(t *testing.T) {
	for _, r := range catalogRuns(1) {
		if r.Stats.TicksSkipped != 0 {
			t.Errorf("%s: %d ticks skipped with TicklessOff set", r.Key(), r.Stats.TicksSkipped)
		}
		if r.Result.Ops == 0 {
			t.Errorf("%s: ran nothing", r.Key())
		}
	}
}

// TestTunedCellBootsFromSpecAndScale gives that fix teeth on a machine
// idle enough to park ticks (the catalog's ablation cells saturate
// theirs): a cell with an explicit scheduler factory still boots its
// spec's cache domains, and skips idle ticks exactly when the Scale lets it.
func TestTunedCellBootsFromSpecAndScale(t *testing.T) {
	c := tunedELSC(SpecByLabel("32P-NUMA"), 1, "defaults", elsc.Config{})
	sc := Scale{Messages: 2, Seed: 42, HorizonSeconds: 600}
	on := RunCell(nil, c, sc)
	sc.TicklessOff = true
	off := RunCell(nil, c, sc)
	if on.Stats.CrossDomainMigrations == 0 {
		t.Errorf("%s: no cross-domain migration on a 4-domain machine; the spec's topology was dropped", c.Key())
	}
	if on.Stats.TicksSkipped == 0 || off.Stats.TicksSkipped != 0 {
		t.Errorf("%s: %d ticks skipped with NO_HZ on, %d with TicklessOff; want some and none",
			c.Key(), on.Stats.TicksSkipped, off.Stats.TicksSkipped)
	}
}

// TestCatalogTablesIdenticalAcrossPoolWidths is pool-width determinism
// for every experiment, not just the matrix: each table renders the same
// bytes from a serial pass and from a two-worker pass.
func TestCatalogTablesIdenticalAcrossPoolWidths(t *testing.T) {
	serial, pooled := catalogRuns(1), catalogRuns(2)
	for _, e := range tinyCatalog() {
		if a, b := e.Table(serial).Render(), e.Table(pooled).Render(); a != b {
			t.Errorf("%s differs across pool widths:\n--- serial\n%s--- 2 workers\n%s", e.Name, a, b)
		}
	}
}

// TestCatalogSharedCellsRunOnce: under -exp all a cell several experiments
// declare is one run — figures 2-6 and the profile draw on one VolanoMark
// set, the wakestorm detail on the matrix's cells.
func TestCatalogSharedCellsRunOnce(t *testing.T) {
	declared := map[CellID]int{}
	byName := map[string][]Experiment{}
	for _, e := range tinyCatalog() {
		byName[e.Name] = append(byName[e.Name], e)
		for _, c := range e.Cells {
			declared[c.CellID]++
		}
	}
	ran := map[CellID]int{}
	for _, r := range catalogRuns(1) {
		ran[r.CellID]++
	}
	if len(ran) != len(declared) {
		t.Fatalf("%d distinct cells ran, %d declared", len(ran), len(declared))
	}
	for id, n := range ran {
		if n != 1 {
			t.Errorf("%s ran %d times", id.Key(), n)
		}
	}
	for _, c := range byName["fig5"][0].Cells {
		if declared[c.CellID] < 3 { // fig2, fig5 and fig6 are all the 10-room set
			t.Errorf("%s: declared by %d experiments, want fig2, fig5 and fig6 to share it", c.Key(), declared[c.CellID])
		}
	}
	for _, c := range byName[workload.WakeStorm][0].Cells {
		if declared[c.CellID] != 2 {
			t.Errorf("%s: declared by %d experiments, want the matrix and the wakestorm detail", c.Key(), declared[c.CellID])
		}
	}
	var figures []Experiment
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "profile"} {
		figures = append(figures, byName[name]...)
	}
	if got, want := len(DistinctCells(figures)), 2*len(PaperSpecs)*len(PaperRooms); got != want {
		t.Errorf("figures 2-6 and the profile need %d distinct cells, want the %d of one VolanoMark matrix", got, want)
	}
}

// TestWorkersDefaultsToGOMAXPROCS pins the -parallel 0 contract the
// sweep flag documents: an unset Parallel resolves to GOMAXPROCS, an
// explicit value wins.
func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := (Scale{}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Scale{Parallel: 0}.Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := (Scale{Parallel: 3}).Workers(); got != 3 {
		t.Fatalf("Scale{Parallel: 3}.Workers() = %d, want 3", got)
	}
}

// TestParallelSweepCPUProfileUsable captures a CPU profile around a
// -parallel 2 matrix and checks the result is a valid gzipped protobuf
// that carries the per-worker sweep_worker pprof label — the property
// that makes a parallel sweep's profile sliceable by worker.
func TestParallelSweepCPUProfileUsable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	sc.Parallel = 2
	// Repeat the matrix until enough wall time has passed that the
	// 100 Hz sampler has landed samples inside worker goroutines.
	for start := time.Now(); time.Since(start) < 700*time.Millisecond; {
		RunWorkloadMatrix([]string{O1, ELSC}, []MachineSpec{SpecByLabel("4P")},
			[]string{workload.DB, workload.WebServer}, sc)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("profile is not gzip-framed: %v", err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("profile does not decompress: %v", err)
	}
	if len(proto) == 0 {
		t.Fatal("profile is empty")
	}
	// The label key lands in the profile's string table verbatim.
	if !bytes.Contains(proto, []byte("sweep_worker")) {
		t.Fatal("profile carries no sweep_worker label; per-worker slicing would be impossible")
	}
}
