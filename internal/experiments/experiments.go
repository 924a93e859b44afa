// Package experiments regenerates every table and figure in the paper's
// evaluation (§6), plus the future-work comparisons (§8) and our ablation
// studies. Each experiment builds fresh machines, runs the appropriate
// workload per configuration, and renders the same rows/series the paper
// reports. Independent runs execute in parallel on the host.
package experiments

import (
	"fmt"
	"runtime"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/heapsched"
	"elsc/internal/sched/mq"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// Policy names, as the paper's figures label them.
const (
	Reg  = "reg"
	ELSC = "elsc"
	Heap = "heap"
	MQ   = "mq"
	O1   = "o1"
	CFS  = "cfs"
)

// Policies lists every registered scheduling policy: the paper's two, the
// §8 future-work designs, the O(1) endpoint of that lineage, and the
// weighted-vruntime fair scheduler that succeeded it. The conformance,
// determinism, and cross-scheduler smoke suites all iterate this list, so
// a new policy registered here (with a matching SchedulerKind in the
// public API) is automatically held to the same contract. Note the fuzz
// generator draws `Policies[rng.Intn(len(Policies))]`, so growing this
// list re-rolls every seed's composition — any regression that depends on
// a specific historical composition must pin the Scenario as a literal
// (see the seed-586 pre-fix replay).
var Policies = []string{Reg, ELSC, Heap, MQ, O1, CFS}

// Factory returns the scheduler factory for a policy name.
func Factory(name string) kernel.SchedulerFactory {
	switch name {
	case Reg:
		return func(env *sched.Env) sched.Scheduler { return vanilla.New(env) }
	case ELSC:
		return func(env *sched.Env) sched.Scheduler { return elsc.New(env) }
	case Heap:
		return func(env *sched.Env) sched.Scheduler { return heapsched.New(env) }
	case MQ:
		return func(env *sched.Env) sched.Scheduler { return mq.New(env) }
	case O1:
		return func(env *sched.Env) sched.Scheduler { return o1.New(env) }
	case CFS:
		return func(env *sched.Env) sched.Scheduler { return cfs.New(env) }
	default:
		panic("experiments: unknown scheduler " + name)
	}
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

// SpecLabels returns every registered spec label, in AllSpecs order —
// the validation list command-line spec filters check against.
func SpecLabels() []string {
	labels := make([]string, len(AllSpecs))
	for i, s := range AllSpecs {
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

// NewMachine builds a machine for a spec and policy.
func NewMachine(spec MachineSpec, policy string, sc Scale) *kernel.Machine {
	return NewMachineWith(spec, Factory(policy), sc)
}

// NewMachineOn builds a machine that boots on a recycled event engine
// (nil allocates a fresh one; see kernel.Config.Engine).
func NewMachineOn(eng *sim.Engine, spec MachineSpec, policy string, sc Scale) *kernel.Machine {
	cfg := machineConfig(spec, Factory(policy), sc)
	cfg.Engine = eng
	return kernel.NewMachine(cfg)
}

// NewMachineWith builds a machine for a spec with an explicit scheduler
// factory — the entry for ablation variants that tune a policy's config.
func NewMachineWith(spec MachineSpec, factory kernel.SchedulerFactory, sc Scale) *kernel.Machine {
	return kernel.NewMachine(machineConfig(spec, factory, sc))
}

// NewWatchedMachineWith builds a machine like NewMachineWith with the
// starvation/lockup watchdog armed — what the scenario fuzzer runs on,
// so liveness violations surface at their virtual timestamp instead of
// end-of-run.
func NewWatchedMachineWith(spec MachineSpec, factory kernel.SchedulerFactory, sc Scale, wd kernel.WatchdogConfig) *kernel.Machine {
	cfg := machineConfig(spec, factory, sc)
	cfg.Watchdog = &wd
	return kernel.NewMachine(cfg)
}

func machineConfig(spec MachineSpec, factory kernel.SchedulerFactory, sc Scale) kernel.Config {
	return kernel.Config{
		CPUs:         spec.CPUs,
		SMP:          spec.SMP,
		Topology:     spec.Topology(),
		Seed:         sc.Seed,
		NewScheduler: factory,
		MaxCycles:    sc.HorizonSeconds * kernel.DefaultHz,
		TicklessOff:  sc.TicklessOff,
	}
}

// VolanoRun is one VolanoMark measurement.
type VolanoRun struct {
	Spec   MachineSpec
	Policy string
	Rooms  int
	Result volano.Result
	Stats  kernel.Stats

	// IntraSteals and CrossSteals are the balancer's own same-domain and
	// cross-domain move counts, for policies that track them (HasSteals).
	IntraSteals uint64
	CrossSteals uint64
	HasSteals   bool
}

// Key renders "elsc-4P@20" style identifiers.
func (r VolanoRun) Key() string {
	return fmt.Sprintf("%s-%s@%d", r.Policy, r.Spec.Label, r.Rooms)
}

// RunVolano executes one VolanoMark configuration.
func RunVolano(spec MachineSpec, policy string, rooms int, sc Scale) VolanoRun {
	return RunVolanoConfig(spec, policy,
		volano.Config{Rooms: rooms, MessagesPerUser: sc.Messages}, sc)
}

// RunVolanoConfig executes one VolanoMark run with a fully specified
// workload config (the NUMA experiments run the scalable-stack variant).
func RunVolanoConfig(spec MachineSpec, policy string, vcfg volano.Config, sc Scale) VolanoRun {
	return RunVolanoConfigOn(nil, spec, policy, vcfg, sc)
}

// RunVolanoConfigOn is RunVolanoConfig on a recycled event engine (nil
// builds a fresh one) — the matrix worker pool's entry.
func RunVolanoConfigOn(eng *sim.Engine, spec MachineSpec, policy string, vcfg volano.Config, sc Scale) VolanoRun {
	return runVolanoOn(NewMachineOn(eng, spec, policy, sc), spec, policy, vcfg)
}

// runVolanoOn runs the workload on a prepared machine and harvests the
// result, stats, and the balancer's steal counters when tracked.
func runVolanoOn(m *kernel.Machine, spec MachineSpec, policy string, vcfg volano.Config) VolanoRun {
	res := volano.Build(m, vcfg).Run()
	run := VolanoRun{Spec: spec, Policy: policy, Rooms: vcfg.Rooms, Result: res, Stats: *m.Stats()}
	if ds, ok := m.Scheduler().(sched.StealReporter); ok {
		run.IntraSteals, run.CrossSteals = ds.DomainSteals()
		run.HasSteals = true
	}
	return run
}

// matrixJob identifies one cell of a sweep.
type matrixJob struct {
	spec   MachineSpec
	policy string
	rooms  int
}

// RunVolanoMatrix sweeps policies × specs × rooms, running cells in
// parallel, and returns results in deterministic (input) order.
func RunVolanoMatrix(policies []string, specs []MachineSpec, rooms []int, sc Scale) []VolanoRun {
	var jobs []matrixJob
	for _, p := range policies {
		for _, spec := range specs {
			for _, r := range rooms {
				jobs = append(jobs, matrixJob{spec: spec, policy: p, rooms: r})
			}
		}
	}
	return forEachParallel(len(jobs), sc, func(i int, eng *sim.Engine) VolanoRun {
		j := jobs[i]
		return RunVolanoConfigOn(eng, j.spec, j.policy,
			volano.Config{Rooms: j.rooms, MessagesPerUser: sc.Messages}, sc)
	})
}

// Find returns the run matching the key parameters, or panics; matrices
// are small and a missing cell is a harness bug.
func Find(runs []VolanoRun, policy, label string, rooms int) VolanoRun {
	for _, r := range runs {
		if r.Policy == policy && r.Spec.Label == label && r.Rooms == rooms {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no run %s-%s@%d", policy, label, rooms))
}

// KBuildRun is one Table 2 measurement.
type KBuildRun struct {
	Spec   MachineSpec
	Policy string
	Result kbuild.Result
}

// RunKBuild executes one kernel-compile configuration.
func RunKBuild(spec MachineSpec, policy string, cfg kbuild.Config, sc Scale) KBuildRun {
	m := NewMachine(spec, policy, sc)
	b := kbuild.New(m, cfg)
	return KBuildRun{Spec: spec, Policy: policy, Result: b.Run()}
}

// WebRun is one future-work webserver measurement.
type WebRun struct {
	Spec   MachineSpec
	Policy string
	Result webserver.Result
	Stats  kernel.Stats
}

// RunWeb executes one webserver configuration.
func RunWeb(spec MachineSpec, policy string, cfg webserver.Config, sc Scale) WebRun {
	m := NewMachine(spec, policy, sc)
	s := webserver.New(m, cfg)
	return WebRun{Spec: spec, Policy: policy, Result: s.Run(), Stats: *m.Stats()}
}
