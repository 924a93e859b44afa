// Command sweep regenerates every table and figure from the paper's
// evaluation section, plus the future-work comparisons and this
// reproduction's ablation studies, and drives the policy x workload x
// machine matrix over the unified workload registry.
//
// Usage:
//
//	sweep                 # everything at paper scale (takes a few minutes)
//	sweep -exp fig3       # one experiment
//	sweep -quick          # reduced scale for a fast look
//	sweep -exp numa -json # domain tables + machine-readable BENCH_sweep.json
//	sweep -exp matrix -specs 8P -loads db,volano -policies o1,elsc
//	sweep -exp fuzz -seed 500 -fuzzn 32   # scenario fuzzer batch
//
// `sweep -h` lists the experiments: the cell experiments of
// experiments.Catalog, each a table rendered from the runs of the cells it
// declares, plus fuzz. Every selected experiment's cells are collected,
// each distinct cell once, and run on one worker pool before any table
// renders. fuzz runs only when named: it prints one trace line per
// scenario rather than a paper table. Everything sweep prints or writes is
// virtual time, identical for a seed at any -parallel; what the harness
// costs on the host is measured by `bash benchmark/run.sh`, and the
// closing `done in N s` on stderr times one invocation.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
	"unicode"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/stats"
	"elsc/internal/workload"
)

// main delegates to run so deferred cleanup — stopping the CPU profile,
// writing the heap profile — still happens on error exits (os.Exit would
// skip the defers and leave a truncated profile).
func main() {
	os.Exit(run())
}

// defaultMatrixSpecs are the machines the matrix experiment runs on
// unless -specs names others.
var defaultMatrixSpecs = []string{"8P", "32P-NUMA"}

// experimentNames lists what -exp accepts: each catalog experiment once,
// in output order, then the fuzzer (not a table of cells), then all.
func experimentNames() []string {
	var names []string
	for _, e := range experiments.Catalog(experiments.DefaultPolicies(), specList("", defaultMatrixSpecs), workload.Names()) {
		if !slices.Contains(names, e.Name) {
			names = append(names, e.Name)
		}
	}
	return append(names, "fuzz", "all")
}

func run() int {
	names := experimentNames()
	var (
		exp        = flag.String("exp", "all", "experiment to run ("+strings.Join(names, " ")+")")
		fuzzN      = flag.Int("fuzzn", 16, "scenarios for -exp fuzz (seeds seed..seed+n-1)")
		wdTrace    = flag.Bool("wdtrace", false, "print each watchdog violation as it fires during -exp fuzz")
		quick      = flag.Bool("quick", false, "reduced message counts for a fast pass")
		messages   = flag.Int("messages", 0, "override messages per user")
		seed       = flag.Int64("seed", 42, "simulation seed")
		parallel   = flag.Int("parallel", 0, "concurrent runs (default GOMAXPROCS)")
		jsonOut    = flag.Bool("json", false, "also write every table to "+jsonPath)
		policies   = flag.String("policies", "", "comma-separated policy filter for the matrix experiments (default: non-baseline policies; retired baselines like mq run only when named)")
		loads      = flag.String("loads", "", "comma-separated workload filter for the matrix experiments (default all registered)")
		specs      = flag.String("specs", "", "comma-separated machine specs for the matrix experiment (default 8P,32P-NUMA)")
		tickless   = flag.String("tickless", "on", "tickless idle mode: on (NO_HZ, the default) or off (re-arm every idle tick; ablation)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at sweep end to this file")
	)
	flag.Parse()
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *exp, strings.Join(names, " "))
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *cpuprofile, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
			}
		}()
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
		sc.Messages = 30
	}
	if *messages > 0 {
		sc.Messages = *messages
	}
	sc.Seed = *seed
	sc.Parallel = *parallel
	switch *tickless {
	case "on":
	case "off":
		sc.TicklessOff = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -tickless mode %q (want on or off)\n", *tickless)
		return 2
	}

	// The default matrix set excludes retired baselines (experiments.DefaultPolicies);
	// naming one in -policies still runs it.
	matrixPolicies := splitList(*policies, experiments.DefaultPolicies(), experiments.Policies)
	matrixLoads := splitList(*loads, workload.Names(), workload.Names())
	matrixSpecs := specList(*specs, defaultMatrixSpecs)

	t0 := time.Now()

	// Every selected experiment declares its cells; each distinct cell
	// runs once, on one pool, and the tables render from the shared runs.
	var selected, recorded []experiments.Experiment
	for _, e := range experiments.Catalog(matrixPolicies, matrixSpecs, matrixLoads) {
		if *exp == "all" || *exp == e.Name {
			selected = append(selected, e)
			if e.Recorded {
				recorded = append(recorded, e)
			}
		}
	}
	cells := experiments.DistinctCells(selected)
	if len(cells) > 0 {
		fmt.Fprintf(os.Stderr, "running %d cells for %d tables (%d messages/user)...\n",
			len(cells), len(selected), sc.Messages)
	}
	runs := experiments.RunCells(cells, sc)
	var tables []*stats.Table
	for _, e := range selected {
		t := e.Table(runs)
		tables = append(tables, t)
		fmt.Println(t.Render())
	}
	// The matrix family's cells are what the JSON file lists per cell.
	var workloadRuns []experiments.WorkloadRun
	for _, c := range experiments.DistinctCells(recorded) {
		workloadRuns = append(workloadRuns, experiments.FindRun(runs, c))
	}

	if *exp == "fuzz" {
		// The whole-machine scenario fuzzer, outside `go test -fuzz`: one
		// deterministic scenario per seed, each audited for task
		// conservation across hot policy swaps, churn, and fork storms.
		// Any FAIL line is a complete reproduction — rerun with that seed.
		fmt.Fprintf(os.Stderr, "running %d fuzz scenarios (seeds %d..%d)...\n",
			*fuzzN, *seed, *seed+int64(*fuzzN)-1)
		failed := 0
		for i := 0; i < *fuzzN; i++ {
			s := experiments.GenScenario(*seed + int64(i))
			if *policies != "" {
				// A -policies filter pins each scenario's starting policy
				// to the filtered set (round-robin), so CI can aim the
				// fuzz budget at one policy; swap targets still draw
				// from the whole registry.
				s.Policy = matrixPolicies[i%len(matrixPolicies)]
			}
			var opts experiments.ScenarioOpts
			if *wdTrace {
				opts.OnViolation = func(v kernel.WatchdogViolation) {
					fmt.Printf("     watchdog: %s\n", v)
				}
			}
			rep, err := experiments.RunScenarioOpts(s, opts)
			if err != nil {
				failed++
				fmt.Printf("FAIL %v\n", err)
				continue
			}
			// The digest hashes the run's full result and stats registry,
			// so two builds' outputs diff clean only if they simulated
			// every scenario identically.
			sum := sha256.Sum256([]byte(rep.Digest))
			fmt.Printf("ok   %s (migrated=%d forked=%d offlined=%d onlined=%d %.2fs virtual) digest=%x\n",
				s, rep.Migrated, rep.Forked, rep.Offlined, rep.Onlined, rep.Result.Seconds, sum[:8])
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%d of %d scenarios violated an invariant\n", failed, *fuzzN)
			return 1
		}
	}

	if *jsonOut {
		if err := writeJSON(jsonPath, *exp, *quick, sc, tables, workloadRuns); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", jsonPath, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d tables and %d workload entries to %s\n",
			len(tables), len(workloadRuns), jsonPath)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(t0).Seconds())
	return 0
}

// resolveList parses a comma-separated flag, defaulting to def and
// validating each entry against the registered set (which may be wider
// than the default — retired baselines are valid but not default). An
// unknown entry returns an error naming the registered set.
func resolveList(flagVal string, def, all []string) ([]string, error) {
	out := strings.FieldsFunc(flagVal, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	for _, name := range out {
		if err := experiments.CheckName(name, all); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return def, nil
	}
	return out, nil
}

// splitList is resolveList with the command-line exit policy: an unknown
// name is a usage error (exit 2), diagnosed on stderr.
func splitList(flagVal string, def, all []string) []string {
	out, err := resolveList(flagVal, def, all)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return out
}

// specList resolves a comma-separated machine-spec filter, validating
// each label against the registered specs with the same diagnostic (and
// exit status) as splitList — a typo must fail loudly, not panic.
func specList(flagVal string, def []string) []experiments.MachineSpec {
	labels := splitList(flagVal, def, experiments.Labels(experiments.AllSpecs))
	var out []experiments.MachineSpec
	for _, l := range labels {
		out = append(out, experiments.SpecByLabel(l))
	}
	return out
}

// jsonPath is where -json drops the machine-readable results, so the
// perf trajectory can be tracked across PRs.
const jsonPath = "BENCH_sweep.json"

// workloadEntry is one matrix cell in the JSON schema: the registry's
// common result flattened for machine consumers, plus the run identity.
type workloadEntry struct {
	Workload   string             `json:"workload"`
	Policy     string             `json:"policy"`
	Spec       string             `json:"spec"`
	Throughput float64            `json:"throughput"`
	Unit       string             `json:"unit"`
	Ops        uint64             `json:"ops"`
	Seconds    float64            `json:"seconds"`
	Complete   bool               `json:"complete"`
	Extras     map[string]float64 `json:"extras,omitempty"`

	// Scheduler-side observability for the run: SD_WAKE_IDLE placements
	// and TIMESLICE_GRANULARITY rotations the kernel performed, and — for
	// policies with an interactivity estimator (o1) — the enqueue counts
	// by dynamic-priority bonus (-5..+5) and active-array requeues.
	WakeIdlePlacements  uint64   `json:"wake_idle_placements"`
	TimesliceRotations  uint64   `json:"timeslice_rotations"`
	TickPreemptions     uint64   `json:"tick_preemptions"`
	BonusLevels         []uint64 `json:"bonus_levels,omitempty"`
	InteractiveRequeues uint64   `json:"interactive_requeues,omitempty"`
}

// sweepJSON is the file schema: enough run metadata to reproduce the
// numbers, every rendered table, and one entry per workload-matrix cell.
type sweepJSON struct {
	Experiment string          `json:"experiment"`
	Quick      bool            `json:"quick"`
	Seed       int64           `json:"seed"`
	Messages   int             `json:"messages_per_user"`
	Horizon    uint64          `json:"horizon_seconds"`
	Tables     []*stats.Table  `json:"tables"`
	Workloads  []workloadEntry `json:"workloads,omitempty"`
}

func writeJSON(path, exp string, quick bool, sc experiments.Scale, tables []*stats.Table, wruns []experiments.WorkloadRun) error {
	entries := make([]workloadEntry, 0, len(wruns))
	for _, r := range wruns {
		e := workloadEntry{
			Workload:   r.Load,
			Policy:     r.Policy,
			Spec:       r.Spec.Label,
			Throughput: r.Result.Throughput,
			Unit:       r.Result.Unit,
			Ops:        r.Result.Ops,
			Seconds:    r.Result.Seconds,
			Complete:   r.Result.Complete,

			WakeIdlePlacements:  r.Stats.WakeIdlePlacements,
			TimesliceRotations:  r.Stats.TimesliceRotations,
			TickPreemptions:     r.Stats.TickPreemptions,
			BonusLevels:         r.BonusLevels,
			InteractiveRequeues: r.InteractiveRequeues,
		}
		if len(r.Result.Extras) > 0 {
			e.Extras = make(map[string]float64, len(r.Result.Extras))
			for _, m := range r.Result.Extras {
				e.Extras[m.Name] = m.Value
			}
		}
		entries = append(entries, e)
	}
	out, err := json.MarshalIndent(sweepJSON{
		Experiment: exp,
		Quick:      quick,
		Seed:       sc.Seed,
		Messages:   sc.Messages,
		Horizon:    sc.HorizonSeconds,
		Tables:     tables,
		Workloads:  entries,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
