// Package experiments regenerates every table and figure in the paper's
// evaluation (§6), plus the future-work comparisons (§8) and our ablation
// studies. The whole evaluation is one matrix — scheduler x machine x
// workload — and the package has one path through it:
//
//	cell -> run -> table
//
// A Cell describes one simulation: a MachineSpec, a policy (a registry
// name, or with Tuned an explicit factory for an ablation arm) and a
// workload (a registry name sized from the Scale, or with Custom an
// explicit config such as Volano(10)'s ten rooms). RunCell is the only
// function that boots a machine for an experiment (through
// machineConfig, the only place a spec and a Scale become a
// kernel.Config), runs the workload and harvests a WorkloadRun: the
// registry's common Result, the machine's Stats, and the policy's steal
// and bonus counters — virtual time only, so two runs of a cell are
// deep-equal. RunCells is the only worker pool:
// independent cells on per-worker recycled event engines, results in
// input order, so every table is byte-identical at any pool width.
//
// An Experiment is a table: the cells it needs, and a Table function
// that renders them out of a run set with FindRun. Catalog lists the
// experiments `sweep` runs; cells several experiments declare (figures
// 2-6 and the profile share one VolanoMark set, the wakestorm detail
// reads matrix cells) are collected by DistinctCells and run once.
//
// Adding an experiment:
//
//  1. Write a constructor returning an Experiment. Declare the cells —
//     Load(name) or Custom(...) for the workload, .On(spec, policy) to
//     place it, .Tuned(label, factory) for a scheduler variant — and
//     close over them in Table, looking each run up with FindRun.
//  2. Give it a Name (the `sweep -exp` selector; several tables may share
//     one) and add it to Catalog where its table belongs in the output.
//  3. That is all: sweep's -exp help and validation, the shared pool, the
//     -json tables, the root BenchmarkCatalog and the catalog-wide tests
//     (pool-width determinism, TicklessOff reaching every machine, shared
//     cells running once) pick it up from the catalog.
//
// The scenario fuzzer (fuzz.go) is the one thing here that is not a table
// of cells. Nothing here reads the host clock: what a cell, the pool or
// the sweep CLI costs in host time is measured by benchmark/.
package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
)

// CheckName returns nil when name is one of registered, and otherwise the
// diagnostic every command-line tool prints before exiting 2. Factory and
// SpecByLabel panic on an unknown name — in code that is a bug — so a name
// that arrives on a command line is checked here first, against Policies
// or Labels(AllSpecs).
func CheckName(name string, registered []string) error {
	if slices.Contains(registered, name) {
		return nil
	}
	return fmt.Errorf("unknown name %q (registered: %s)", name, strings.Join(registered, " "))
}

// MachineSpec is one hardware configuration from the paper: UP is a
// non-SMP build on one processor, 1P an SMP build on one processor, 2P and
// 4P SMP builds on two and four. Specs past the paper's hardware may also
// declare cache domains (Domains > 1), giving the machine a NUMA-style
// topology in which off-domain migrations pay the interconnect refill.
type MachineSpec struct {
	Label   string
	CPUs    int
	SMP     bool
	Domains int // cache domains; 0 or 1 means flat

	// topo is the layout numaSpec built for a registered spec. A Topology
	// is immutable, so every machine of the spec shares it.
	topo *sched.Topology
}

// numaSpec returns an SMP spec of cpus processors in domains cache domains.
func numaSpec(label string, cpus, domains int) MachineSpec {
	return MachineSpec{Label: label, CPUs: cpus, SMP: true, Domains: domains,
		topo: sched.UniformTopology(cpus, domains)}
}

// Topology returns the spec's cache-domain layout, nil for flat machines.
func (s MachineSpec) Topology() *sched.Topology {
	if s.Domains <= 1 {
		return nil
	}
	if t := s.topo; t != nil && t.NumCPU() == s.CPUs && t.NumDomains() == s.Domains {
		return t
	}
	return sched.UniformTopology(s.CPUs, s.Domains)
}

// PaperSpecs are the four configurations of §6.
var PaperSpecs = []MachineSpec{
	{Label: "UP", CPUs: 1, SMP: false},
	{Label: "1P", CPUs: 1, SMP: true},
	{Label: "2P", CPUs: 2, SMP: true},
	{Label: "4P", CPUs: 4, SMP: true},
}

// AllSpecs extends PaperSpecs with machines past the paper's hardware:
// 8, 16 and 32 flat processors, where the per-CPU-lock designs separate
// decisively from the global-lock ones, and a 32-processor machine with
// four 8-CPU cache domains — the NUMA-style spec the domain-aware
// balancing experiments run on.
var AllSpecs = append(append([]MachineSpec{}, PaperSpecs...),
	MachineSpec{Label: "8P", CPUs: 8, SMP: true},
	MachineSpec{Label: "16P", CPUs: 16, SMP: true},
	MachineSpec{Label: "32P", CPUs: 32, SMP: true},
	numaSpec("32P-NUMA", 32, 4),
	numaSpec("64P-NUMA", 64, 8))

// NUMASpecs are the cache-domain machines: the 4x8 spec the domain
// experiments were built on, and the 64-processor, 8-domain spec that
// stresses the two-level balancing hierarchy (eight domains to choose a
// cross-domain victim from, not three).
var NUMASpecs = []MachineSpec{SpecByLabel("32P-NUMA"), SpecByLabel("64P-NUMA")}

// SpecByLabel returns the named spec.
func SpecByLabel(label string) MachineSpec {
	for _, s := range AllSpecs {
		if s.Label == label {
			return s
		}
	}
	panic("experiments: unknown machine spec " + label)
}

// Labels returns the specs' labels, in order; of AllSpecs it is the
// validation list command-line spec filters check against.
func Labels(specs []MachineSpec) []string {
	labels := make([]string, len(specs))
	for i, s := range specs {
		labels[i] = s.Label
	}
	return labels
}

// PaperRooms is the room sweep of Figure 3.
var PaperRooms = []int{5, 10, 15, 20}

// Scale controls how much work each run performs, so tests and benchmarks
// can shrink the experiments while cmd/sweep runs them at paper scale.
type Scale struct {
	// Messages per user (paper: 100). The generic matrix runner feeds
	// this to every workload as its per-actor work count.
	Messages int
	// Seed for the deterministic run.
	Seed int64
	// HorizonSeconds bounds each run's virtual time.
	HorizonSeconds uint64
	// Parallel is the number of concurrent runs (0 = GOMAXPROCS).
	Parallel int
	// Quick selects each workload's reduced shape (fewer actors, same
	// code paths) in the registry-driven runs.
	Quick bool
	// TicklessOff disables NO_HZ tickless idle on every machine built
	// for this scale (see kernel.Config.TicklessOff) — the ablation the
	// equivalence tests and `sweep -tickless=off` run under.
	TicklessOff bool
}

// DefaultScale reproduces the paper's parameters.
func DefaultScale() Scale {
	return Scale{Messages: 100, Seed: 42, HorizonSeconds: 3000}
}

// QuickScale is a reduced configuration for tests and benchmarks.
func QuickScale() Scale {
	return Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// Workers returns the effective worker-pool width: Parallel when set,
// otherwise GOMAXPROCS.
func (s Scale) Workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// NewMachineOn builds a machine for a spec and policy, booting on a
// recycled event engine (nil allocates a fresh one; see
// kernel.Config.Engine).
func NewMachineOn(eng *sim.Engine, spec MachineSpec, policy string, sc Scale) *kernel.Machine {
	return kernel.NewMachine(machineConfig(eng, spec, Factory(policy), sc))
}

// machineConfig is the one place a spec, a scheduler factory and a Scale
// become a kernel.Config: every cell, test machine and fuzz scenario boots
// from it, so a Scale knob or a spec's topology cannot be honoured by one
// experiment and dropped by another.
func machineConfig(eng *sim.Engine, spec MachineSpec, factory kernel.SchedulerFactory, sc Scale) kernel.Config {
	return kernel.Config{
		CPUs:         spec.CPUs,
		SMP:          spec.SMP,
		Topology:     spec.Topology(),
		Seed:         sc.Seed,
		NewScheduler: factory,
		MaxCycles:    sc.HorizonSeconds * kernel.DefaultHz,
		TicklessOff:  sc.TicklessOff,
		Engine:       eng,
	}
}
