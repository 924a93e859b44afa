package experiments

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/stats"
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
)

// CellID names one simulation: which workload runs under which policy on
// which machine. It is comparable, and it is what makes two declarations
// the same cell — experiments that share a CellID share one run.
type CellID struct {
	Spec   MachineSpec
	Policy string
	Load   string
	// Variant names what an explicit workload config or scheduler factory
	// changes from the registry defaults ("10 rooms", "limit=3"); a
	// registry workload under a registry policy has none.
	Variant string
}

// Key renders "db-o1-8P" style identifiers; a variant is appended after
// a slash ("volano-elsc-4P/10 rooms").
func (id CellID) Key() string {
	key := fmt.Sprintf("%s-%s-%s", id.Load, id.Policy, id.Spec.Label)
	if id.Variant != "" {
		key += "/" + id.Variant
	}
	return key
}

// Cell describes one simulation completely: its identity, plus the
// explicit scheduler factory and workload builder for the cells that
// depart from the registries. The zero Factory and Build mean "the
// registered policy" and "the registered workload, sized from the Scale".
type Cell struct {
	CellID
	// Factory builds the scheduler instead of Factory(Policy) — an
	// ablation variant of Policy, named by Variant.
	Factory kernel.SchedulerFactory
	// Build builds the workload instead of the registry's Load entry — a
	// figure-specific config, named by Variant.
	Build workload.Builder
}

// Load starts a cell from a registered workload, sized from the Scale.
func Load(name string) Cell { return Cell{CellID: CellID{Load: name}} }

// Custom starts a cell from an explicit workload config: build constructs
// it (one of the registry's explicit-config entries, so the run reports
// the common Result), variant names the config in the cell's key.
func Custom(load, variant string, build workload.Builder) Cell {
	return Cell{CellID: CellID{Load: load, Variant: variant}, Build: build}
}

// Volano is the paper's workload cell: VolanoMark at an explicit room
// count (20 users a room, the Scale's messages per user, the 2.3-era
// serialized network stack).
func Volano(rooms int) Cell {
	return Custom(workload.Volano, fmt.Sprintf("%d rooms", rooms),
		func(m *kernel.Machine, p workload.Params) workload.Instance {
			return workload.VolanoWith(volano.Config{Rooms: rooms, MessagesPerUser: p.Work})(m, p)
		})
}

// On places the cell on a machine under a registered policy.
func (c Cell) On(spec MachineSpec, policy string) Cell {
	c.Spec, c.Policy = spec, policy
	return c
}

// Tuned swaps the policy's registered factory for an explicit one — an
// ablation arm of the same policy — and adds its label to the variant.
func (c Cell) Tuned(label string, factory kernel.SchedulerFactory) Cell {
	if c.Variant != "" {
		label = c.Variant + ", " + label
	}
	c.Variant, c.Factory = label, factory
	return c
}

// cellsOn places one workload on one machine under each policy in turn.
func cellsOn(load Cell, spec MachineSpec, policies []string) []Cell {
	cells := make([]Cell, len(policies))
	for i, p := range policies {
		cells[i] = load.On(spec, p)
	}
	return cells
}

// WorkloadRun is one cell's run record — the only one: every table, the
// JSON writer and every determinism check reads its numbers from here.
// All of it is virtual-time: two runs of one cell at one seed are
// deep-equal on any host and at any pool width.
type WorkloadRun struct {
	CellID
	Result workload.Result
	Stats  kernel.Stats

	// Steals is the balancer's own count of the tasks each CPU moved
	// onto itself from its own cache domain and across one (Ops.Steals),
	// nil under a policy without one.
	Steals []sched.CPUSteals

	// BonusLevels and InteractiveRequeues are the interactivity
	// estimator's own counters — enqueues by dynamic-priority bonus
	// (-5..+5) and active-array re-insertions granted — and stay nil and
	// zero under a policy that has no estimator.
	BonusLevels         []uint64
	InteractiveRequeues uint64
}

// RunCell executes one cell: boot the machine on eng (a recycled event
// engine; nil allocates a fresh one), build the workload, run it, and
// harvest the result, the machine's stats and the policy's own counters.
// Every simulation the harness runs goes through here.
func RunCell(eng *sim.Engine, c Cell, sc Scale) WorkloadRun {
	factory := c.Factory
	if factory == nil {
		factory = Factory(c.Policy)
	}
	build := c.Build
	if build == nil {
		build = workload.ByName(c.Load).Build
	}
	m := kernel.NewMachine(machineConfig(eng, c.Spec, factory, sc))
	run := WorkloadRun{CellID: c.CellID, Result: build(m, WorkloadParams(c.Spec, sc)).Run(), Stats: *m.Stats()}
	ops := m.Ops()
	if ops.Steals != nil {
		run.Steals = ops.Steals()
	}
	if ops.Bonus != nil {
		run.BonusLevels, run.InteractiveRequeues = ops.Bonus()
	}
	return run
}

// RunCells runs independent cells on a pool of sc.Workers() workers and
// returns their runs in input order, so tables stay deterministic
// regardless of completion order. Each worker owns one recycled event
// engine for its whole job stream (cells reuse the wheel rings and
// freelist instead of reallocating them) and is tagged with a
// sweep_worker pprof label, so a CPU profile of a parallel sweep can be
// sliced per worker.
func RunCells(cells []Cell, sc Scale) []WorkloadRun {
	out := make([]WorkloadRun, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(sc.Workers(), len(cells)); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("sweep_worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				eng := new(sim.Engine)
				for i := range jobs {
					out[i] = RunCell(eng, cells[i], sc)
				}
			})
		}(w)
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// FindRun returns the run of cell c, or panics; run sets are small and a
// missing cell is a harness bug.
func FindRun(runs []WorkloadRun, c Cell) WorkloadRun {
	for i := range runs {
		if runs[i].CellID == c.CellID {
			return runs[i]
		}
	}
	panic("experiments: no run " + c.Key())
}

// Experiment is one table of the evaluation: the cells it needs and how
// to render their runs. Experiments sharing a Name run together under
// that `sweep -exp` selector (lock is three tables, one per machine).
type Experiment struct {
	Name  string
	Cells []Cell
	// Table renders the experiment from a run set holding at least its
	// cells — typically the whole sweep's.
	Table func(runs []WorkloadRun) *stats.Table
	// Recorded marks the matrix family, whose cells sweep also writes to
	// BENCH_sweep.json's per-cell section.
	Recorded bool
}

// Run runs the experiment's cells and renders its table.
func (e Experiment) Run(sc Scale) *stats.Table {
	return e.Table(RunCells(e.Cells, sc))
}

// DistinctCells collects the experiments' cells in declaration order,
// each CellID once: fig2-6 and profile draw on one VolanoMark run set,
// the wakestorm detail on the matrix's cells, alt on two of fig5's.
func DistinctCells(exps []Experiment) []Cell {
	var cells []Cell
	seen := map[CellID]bool{}
	for _, e := range exps {
		for _, c := range e.Cells {
			if !seen[c.CellID] {
				seen[c.CellID] = true
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// Catalog lists every experiment `sweep` regenerates, in output order,
// at the paper's sizes. policies, specs and loads select the matrix
// family (the policy x workload grids, one per spec, and the wakestorm
// detail); everything else is fixed by the evaluation it reproduces.
func Catalog(policies []string, specs []MachineSpec, loads []string) []Experiment {
	numa := SpecByLabel("32P-NUMA")
	exps := []Experiment{
		Table2(Load(workload.KBuild)),
		Fig2(10), Fig3(PaperRooms), Fig4(5, 20), Fig5(10), Fig6(10), Profile(PaperRooms),
		AltSchedulers(SpecByLabel("4P"), 10),
		Webserver(SpecByLabel("2P"), Load(workload.WebServer)),
		// The lock-wait headline, scaled past the paper's hardware: the
		// global-lock policies collapse as CPUs double, the per-CPU-lock
		// ones do not.
		LockContention(SpecByLabel("8P"), 10),
		LockContention(SpecByLabel("16P"), 10),
		LockContention(SpecByLabel("32P"), 10),
		Numa(numa, 10), Numa(SpecByLabel("64P-NUMA"), 10),
		// Marginal load (3 rooms on 32 CPUs) keeps the steal path hot —
		// the regime where domain awareness pays.
		AblateTopology(numa, 3),
	}
	for _, spec := range specs {
		exps = append(exps, MatrixTable(spec, policies, loads))
	}
	return append(exps,
		WorkloadDetail(numa, policies, workload.WakeStorm),
		// The spec where the matrix exposed o1's latency collapse.
		AblateInteractivity(numa),
		WakeLatency(SpecByLabel("UP"), []int{4, 16, 64, 256}),
		AblateSearchLimit(SpecByLabel("4P"), 10, []int{1, 3, 7, 15, 40}),
		AblateTableSize(SpecByLabel("1P"), 10, []int{15, 30, 60}),
		AblateUPShortcut(10))
}
