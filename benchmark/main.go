// Command benchmark is the repo's performance ruler: four fixed-size
// simulation workloads timed end to end on the host, and a ledger of
// single-layer measurements taken from outside every layer. It changes
// nothing it measures; see README.md for the metric and workload tables.
//
//	bash benchmark/run.sh                          # all four workloads, interleaved
//	bash benchmark/run.sh -workload hogs_segments  # one workload
//	bash benchmark/run.sh -trace 1                 # plus the traced round and the layer ledger
//	bash benchmark/run.sh -compare A.json B.json   # verdict per workload x end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"elsc/internal/sim"
)

// buildDir is where run.sh builds and where the benchmark writes its
// result files; the root .gitignore names it.
const buildDir = ".bench_build"

// modelNote is stated with every result: the repo holds no measurement of
// real hardware to compare the model against.
const modelNote = "model unvalidated, no error figure: the repo holds no hardware reference, so simulated statistics are checked for identity only"

type options struct {
	workload string
	seed     int64
	seconds  int
	reps     int
	trace    bool
	smoke    bool
	out      string
	update   bool
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four, interleaved round-robin)")
	flag.Int64Var(&o.seed, "seed", 42, "simulation seed for every cell")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measuring time per workload; sets the number of timed rounds from each workload's sized rep cost, so the count does not depend on the host")
	flag.IntVar(&o.reps, "reps", 0, "run exactly this many timed rounds, whatever -seconds says")
	flag.IntVar(&traceFlag, "trace", 0, "1 adds the traced round and the direct-drive layer ledger")
	flag.BoolVar(&o.smoke, "smoke", false, "work / 50 and one rep: a functional pass, not a measurement")
	flag.StringVar(&o.out, "out", "", "result JSON path (default "+buildDir+"/benchmark-<workload>.json under the repo root)")
	flag.BoolVar(&o.update, "update-baseline", false, "after a full seed-42 run of all workloads, rewrite benchmark/baseline.json")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.Parse()
	o.trace = traceFlag != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments %v\n", flag.Args())
		return 2
	}
	if o.reps < 0 || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "-reps must not be negative and -seconds must be at least 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	all := workloads(o.smoke)
	var selected []workloadDef
	for _, w := range all {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", o.workload)
		return 2
	}
	if o.update && (o.workload != "" || o.seed != baselineSeed || o.smoke) {
		fmt.Fprintf(os.Stderr, "-update-baseline needs a full run of all workloads at seed %d\n", baselineSeed)
		return 2
	}
	if o.out == "" {
		name := o.workload
		if name == "" {
			name = "all"
		}
		o.out = filepath.Join(root, buildDir, "benchmark-"+name+".json")
	}

	rep, spans, err := measure(o, root, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep.print(os.Stdout)
	if err := rep.write(o.out, spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if o.update {
		if err := writeBaseline(root, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if o.workload != "" {
		fmt.Println(rep.driverLine(o.trace))
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any ancestor of the working directory")
		}
		dir = parent
	}
}

// Measurement parameters.
const (
	defaultSeconds = 20                     // BENCHMARK.json's run_seconds
	minRounds      = 3                      // timed rounds, however few -seconds asks for
	setupSamples   = 9                      // set-up loops per workload; the median is setup_s
	setupWindow    = 300 * time.Millisecond // each set-up loop repeats boot+build at least this long
	noisyFactor    = 1.10                   // a rep whose noise probe exceeds the run's fastest by this is listed as noisy
	maxFailures    = 20                     // failure descriptions kept per workload
)

// wlState is one workload's samples while the rounds run.
type wlState struct {
	def workloadDef
	rep *workloadReport

	// Per-rep (per set-up loop) samples: wall seconds, MB, and the noise
	// probe's milliseconds before each rep.
	setup, run, alloc, built, live, probe []float64
	// ref is each cell key's digest at first sighting; every later run of
	// the key — later passes, later reps, the traced rep — must match.
	ref map[string]string
	// cellRun collects each distinct cell's Instance.Run wall (ms) over
	// every untraced run of it.
	cellRun map[string][]float64
	last    repResult // the most recent untraced rep
}

// repResult is one rep: every cell of the workload run once.
type repResult struct {
	cells []cellRun
	run   time.Duration // summed Instance.Run wall
	wall  time.Duration // boot+build+run+harvest
	alloc uint64        // TotalAlloc delta over the rep
	live  uint64        // largest post-Run, post-GC HeapAlloc (recycled engine)
}

type bench struct {
	opt   options
	eng   *sim.Engine // the one recycled engine every cell boots on
	clock time.Duration
	probe *probeState
}

// rep runs every cell of w once. timers, when non-nil, holds one policy
// timer per cell and turns the timing decorators on.
func (b *bench) rep(w *wlState, o runOpts, timers []*policyTimer) repResult {
	res := repResult{cells: make([]cellRun, 0, len(w.def.cells))}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, c := range w.def.cells {
		if timers != nil {
			o.timer = timers[i]
		}
		r := runCell(b.eng, c, b.opt.seed, o)
		res.run += r.run
		res.wall += r.boot + r.build + r.run + r.harvest
		if r.liveHeap > res.live {
			res.live = r.liveHeap
		}
		w.check(c, &r)
		if timers == nil {
			w.cellRun[c.key()] = append(w.cellRun[c.key()], float64(r.run)/1e6)
		}
		res.cells = append(res.cells, r)
	}
	runtime.ReadMemStats(&ms1)
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return res
}

// check counts one operation and records why it failed, if it did.
func (w *wlState) check(c cell, r *cellRun) {
	w.rep.OpsAttempted++
	why := r.failure()
	if why == "" {
		if ref, seen := w.ref[c.key()]; !seen {
			w.ref[c.key()] = r.digest
		} else if ref != r.digest {
			why = "digest differs from an earlier run of the same cell and seed"
		}
	}
	if why != "" {
		w.rep.OpsFailed++
		if len(w.rep.Failures) < maxFailures {
			w.rep.Failures = append(w.rep.Failures, c.key()+": "+why)
		}
	}
}

// setupSample repeats boot+build of every cell for at least setupWindow
// and returns the wall seconds one round took.
func (b *bench) setupSample(w *wlState) float64 {
	window := setupWindow
	if b.opt.smoke {
		window = 0
	}
	t0 := now()
	rounds := 0
	for {
		for _, c := range w.def.cells {
			setupCell(b.eng, c, b.opt.seed)
		}
		rounds++
		if wall := now() - t0; wall >= window {
			return wall.Seconds() / float64(rounds)
		}
	}
}

// builtSample returns the largest builtHeap over w's distinct cells, MB.
func (b *bench) builtSample(w *wlState) float64 {
	var largest uint64
	seen := map[string]bool{}
	for _, c := range w.def.cells {
		if seen[c.key()] {
			continue
		}
		seen[c.key()] = true
		if h := builtHeap(c, b.opt.seed); h > largest {
			largest = h
		}
	}
	return float64(largest) / 1e6
}

// rounds turns the command line into a count of timed rounds. -seconds
// is divided by the sized cost of one round (workloadDef.repSeconds), so
// the count is a property of the command line and not of how fast the
// host happened to be: the same on both sides of an A/B.
func rounds(o options, defs []workloadDef) int {
	switch {
	case o.smoke:
		return 1
	case o.reps > 0:
		return o.reps
	}
	var perRound float64
	for _, d := range defs {
		perRound += d.repSeconds
	}
	return max(minRounds, int(float64(o.seconds*len(defs))/perRound))
}

// measure runs the set-up loops, a small warm-up, the timed rounds with
// the workloads interleaved round-robin, and — with -trace — the traced
// round and the direct-drive layer ledger. root is the checkout root.
func measure(o options, root string, defs []workloadDef) (*report, *spanLog, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	if err := checkDeclarations(root); err != nil {
		return nil, nil, err
	}
	// Everything timed runs on one P. The simulation is one goroutine, and
	// with a second P the runtime moves it between threads and runs the
	// collector beside it: on the 2-vCPU sizing host that made run_s 3-8%
	// slower and several times less steady, setup_s 15-30% slower (README,
	// Noise). Only the worker-pool measurement gets the Ps back.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	events := probeEvents
	if o.smoke {
		events /= smokeDivisor
	}
	b := &bench{opt: o, eng: new(sim.Engine), clock: clockCost(), probe: newProbe(events)}
	rep := newReport(o, b.clock)
	var ws []*wlState
	for _, d := range defs {
		w := &wlState{def: d, rep: &workloadReport{Name: d.name}, ref: map[string]string{}, cellRun: map[string][]float64{}}
		ws = append(ws, w)
		rep.Workloads = append(rep.Workloads, w.rep)
	}

	// Warm-up: each selected workload at smoke size, so code and the
	// engine's arrays are paged in before anything is timed. A full-size
	// warm-up rep would cost up to a third of the run's budget.
	if !o.smoke {
		small := map[string][]cell{}
		for _, d := range workloads(true) {
			small[d.name] = d.cells
		}
		for _, w := range ws {
			for _, c := range small[w.def.name] {
				runCell(b.eng, c, o.seed, runOpts{})
			}
		}
	}

	samples := setupSamples
	if o.smoke {
		samples = 1
	}
	for i := 0; i < samples; i++ {
		for _, w := range ws {
			w.setup = append(w.setup, b.setupSample(w))
			w.built = append(w.built, b.builtSample(w))
		}
	}

	for round, n := 0, rounds(o, defs); round < n; round++ {
		for _, w := range ws {
			w.probe = append(w.probe, b.probe.run())
			r := b.rep(w, runOpts{liveHeap: true}, nil)
			w.run = append(w.run, r.run.Seconds())
			w.alloc = append(w.alloc, float64(r.alloc)/1e6)
			w.live = append(w.live, float64(r.live)/1e6)
			w.last = r
		}
	}

	var spans *spanLog
	if o.trace {
		spans = &spanLog{}
		for _, w := range ws {
			b.traced(w, spans)
		}
		lb := layerBench{batches: 5, div: 1, seed: o.seed, root: root, procs: procs}
		if o.smoke {
			lb.batches, lb.div = 1, smokeDivisor
		}
		out := metricSet{}
		lb.simLayer(out)
		lb.schedLayer(out)
		lb.kernelLayer(out, b.clock)
		lb.workloadLayer(out)
		lb.statsLayer(out)
		lb.traceLayer(out, workloads(o.smoke)[1].cells[0]) // volano_numa's o1 cell
		if err := lb.experimentsLayer(out); err != nil {
			return nil, nil, err
		}
		rep.PerLayer = out
	}

	base, err := loadBaseline(root)
	if err != nil {
		return nil, nil, err
	}
	sweep, err := loadSweepCells(root)
	if err != nil {
		return nil, nil, err
	}
	for _, w := range ws {
		w.finish(o, base, sweep)
	}
	return rep, spans, nil
}

// traced runs one more rep of w with the policy decorators and span
// recording on, and derives w's per-layer metrics from it. End-to-end
// metrics never come from this rep.
func (b *bench) traced(w *wlState, spans *spanLog) {
	timers := make([]*policyTimer, len(w.def.cells))
	for i := range timers {
		timers[i] = &policyTimer{eng: b.eng}
	}
	first := len(spans.spans)
	root := spans.begin("workload", w.def.name, -1)
	repID := spans.begin("rep", "traced", root)
	r := b.rep(w, runOpts{liveHeap: true, spans: spans, parent: repID}, timers)
	spans.end(repID)
	spans.end(root)

	var pt policyTimer
	var st cellRun // sums over the rep's cells
	var ops uint64
	var simSeconds float64
	for i := range r.cells {
		c := &r.cells[i]
		pt.add(timers[i])
		st.steps += c.steps
		st.intra += c.intra
		st.cross += c.cross
		ops += c.result.Ops
		simSeconds += c.result.Seconds
		s, k := &st.stats, &c.stats
		s.EventsFired += k.EventsFired
		s.EventsHeap += k.EventsHeap
		s.SchedCalls += k.SchedCalls
		s.Examined += k.Examined
		s.Recalcs += k.Recalcs
		s.WakeCalls += k.WakeCalls
		s.CtxSwitches += k.CtxSwitches
		s.Migrations += k.Migrations
		s.Preemptions += k.Preemptions
		s.LockContended += k.LockContended
		s.TicksSkipped += k.TicksSkipped
		s.IdleTickRescues += k.IdleTickRescues
	}
	events := float64(st.stats.EventsFired)
	per := func(op int) float64 {
		if pt.calls[op] == 0 {
			return 0
		}
		return float64(pt.net(op, b.clock)) / float64(pt.calls[op])
	}
	policy := pt.total(b.clock)
	rest := nonPolicy(r.run, &pt, b.clock)

	// The slowest cell by wall per event, from the last untraced rep.
	var worst float64
	for i := range w.last.cells {
		c := &w.last.cells[i]
		if v := float64(c.boot+c.build+c.run+c.harvest) / float64(c.stats.EventsFired); v > worst {
			worst = v
		}
	}

	m := metricSet{}
	m.set("sim.events", events)
	m.set("sim.events_heap", float64(st.stats.EventsHeap))
	m.set("sim.pending_mean", float64(pt.pendingSum)/float64(pt.calls[opSchedule]))
	m.set("sim.recycled_live_mb", median(w.live))
	m.set("sched.schedule_ns", per(opSchedule))
	m.set("sched.schedule_calls", float64(pt.calls[opSchedule]))
	m.set("sched.enqueue_ns", per(opEnqueue))
	m.set("sched.enqueue_calls", float64(pt.calls[opEnqueue]))
	m.set("sched.dequeue_ns", per(opDequeue))
	m.set("sched.share_pct", 100*float64(policy)/float64(policy+rest))
	m.set("sched.examined_per_call", float64(st.stats.Examined)/float64(st.stats.SchedCalls))
	m.set("sched.recalcs", float64(st.stats.Recalcs))
	m.set("sched.steals_intra", float64(st.intra))
	m.set("sched.steals_cross", float64(st.cross))
	m.set("kernel.nonpolicy_ns_per_event", float64(rest)/events)
	m.set("kernel.sched_calls", float64(st.stats.SchedCalls))
	m.set("kernel.wake_calls", float64(st.stats.WakeCalls))
	m.set("kernel.ctx_switches", float64(st.stats.CtxSwitches))
	m.set("kernel.migrations", float64(st.stats.Migrations))
	m.set("kernel.preemptions", float64(st.stats.Preemptions))
	m.set("kernel.lock_contended", float64(st.stats.LockContended))
	m.set("kernel.ticks_skipped", float64(st.stats.TicksSkipped))
	m.set("kernel.idle_tick_rescues", float64(st.stats.IdleTickRescues))
	m.set("workload.steps", float64(st.steps))
	m.set("workload.steps_per_event", float64(st.steps)/events)
	m.set("workload.sim_ops_per_s", float64(ops)/simSeconds)
	m.set("experiments.ns_per_event", float64(w.last.wall)/events)
	m.set("experiments.cell_ns_per_event_max", worst)
	m.set("benchmark.trace_overhead_pct", 100*(r.run.Seconds()/slices.Min(w.run)-1))
	m.set("benchmark.noise_probe_ms", median(w.probe))
	w.rep.PerLayer = m

	// Self time per span kind, and each distinct cell's policy ledger.
	w.rep.SelfMS = map[string]float64{}
	for kind, d := range spans.selfTimes(first) {
		w.rep.SelfMS[kind] = float64(d) / 1e6
	}
	w.rep.tracedCells = map[string]*policyReport{}
	for i, c := range w.def.cells {
		if _, seen := w.rep.tracedCells[c.key()]; seen {
			continue
		}
		t := timers[i]
		w.rep.tracedCells[c.key()] = &policyReport{
			ScheduleCalls: t.calls[opSchedule], ScheduleNS: int64(t.net(opSchedule, b.clock)),
			EnqueueCalls: t.calls[opEnqueue], EnqueueNS: int64(t.net(opEnqueue, b.clock)),
			DequeueCalls: t.calls[opDequeue], DequeueNS: int64(t.net(opDequeue, b.clock)),
		}
	}
}

// finish turns w's samples into its report.
func (w *wlState) finish(o options, base *baselineFile, sweep map[string]sweepCell) {
	r := w.rep
	r.Reps = len(w.run)
	r.ProbeMS = w.probe
	samples := map[string][]float64{"run_s": w.run, "setup_s": w.setup, "alloc_mb": w.alloc, "live_heap_mb": w.built}
	r.EndToEnd = map[string]summary{}
	for _, d := range endToEnd {
		r.EndToEnd[d.name] = summarize(d, samples[d.name])
	}
	fastest := slices.Min(w.probe)
	r.NoisyReps = []int{}
	for i, p := range w.probe {
		if p > fastest*noisyFactor {
			r.NoisyReps = append(r.NoisyReps, i)
		}
	}

	seen := map[string]bool{}
	for i, c := range w.def.cells {
		key := c.key()
		if seen[key] {
			continue
		}
		seen[key] = true
		cr := &w.last.cells[i]
		runMS := median(w.cellRun[key])
		r.Cells = append(r.Cells, cellReport{
			Key: key, Digest: w.ref[key],
			Events: cr.stats.EventsFired, Ops: cr.result.Ops,
			SimSeconds: cr.result.Seconds, Throughput: cr.result.Throughput, Unit: cr.result.Unit,
			RunMS: runMS, NSPerEvent: runMS * 1e6 / float64(cr.stats.EventsFired),
			Policy: r.tracedCells[key],
		})
		// A changed simulation is reported, not failed: a deliberate
		// model fix must be visible without being rejected. Only the
		// full-size seed-42 run has recorded references.
		if o.seed != baselineSeed {
			continue
		}
		if !o.smoke {
			if want, ok := base.Digests[w.def.name][key]; !ok || want != w.ref[key] {
				r.SimChanged = append(r.SimChanged, key+": digest differs from benchmark/baseline.json")
			}
		}
		// matrix_quick's cells are the committed BENCH_sweep.json cells
		// (smoke shrinks only the pass count), so they must reproduce it.
		if w.def.name == "matrix_quick" && sweep != nil {
			got := sweepCell{cr.result.Ops, cr.result.Seconds, cr.result.Throughput}
			if want, ok := sweep[key]; !ok || want != got {
				r.SimChanged = append(r.SimChanged, fmt.Sprintf("%s: ops/seconds/throughput %v differ from BENCH_sweep.json %v", key, got, want))
			}
		}
	}
}

// summary is one end-to-end metric over a run's reps. Value is the
// metric's reported value: the fastest rep for a metric declared fastest,
// the median otherwise.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(d metricDef, xs []float64) summary {
	q1, q3 := quartiles(xs)
	s := summary{Unit: d.unit, Median: median(xs), Q1: q1, Q3: q3, Min: slices.Min(xs), N: len(xs), Samples: xs}
	s.Value = s.Median
	if d.fastest {
		s.Value = s.Min
	}
	return s
}

// median returns the middle of xs (mean of the middle two for even n).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance check computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// report is the result file: everything one invocation measured.
type report struct {
	Seed        int64             `json:"seed"`
	Smoke       bool              `json:"smoke"`
	Model       string            `json:"model"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	ClockCostNS float64           `json:"clock_cost_ns"`
	Workloads   []*workloadReport `json:"workloads"`
	// PerLayer holds the direct-drive metrics, which do not depend on the
	// workload; each workload's own per-layer metrics are in its entry.
	PerLayer metricSet `json:"per_layer,omitempty"`
}

type workloadReport struct {
	Name         string             `json:"name"`
	Reps         int                `json:"reps"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Failures     []string           `json:"failures,omitempty"`
	SimChanged   []string           `json:"sim_changed,omitempty"`
	NoisyReps    []int              `json:"noisy_reps"`
	ProbeMS      []float64          `json:"noise_probe_ms"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	PerLayer     metricSet          `json:"per_layer,omitempty"`
	SelfMS       map[string]float64 `json:"span_self_ms,omitempty"`
	Cells        []cellReport       `json:"cells"`

	tracedCells map[string]*policyReport
}

// cellReport is one distinct cell: what it simulated (exact per seed)
// and what that cost (median over its untraced runs).
type cellReport struct {
	Key        string        `json:"key"`
	Digest     string        `json:"digest"`
	Events     uint64        `json:"events"`
	Ops        uint64        `json:"ops"`
	SimSeconds float64       `json:"sim_seconds"`
	Throughput float64       `json:"sim_throughput"`
	Unit       string        `json:"sim_unit"`
	RunMS      float64       `json:"run_ms"`
	NSPerEvent float64       `json:"run_ns_per_event"`
	Policy     *policyReport `json:"policy,omitempty"`
}

// policyReport is a traced cell's policy ledger, net of clock cost.
type policyReport struct {
	ScheduleCalls uint64 `json:"schedule_calls"`
	ScheduleNS    int64  `json:"schedule_ns"`
	EnqueueCalls  uint64 `json:"enqueue_calls"`
	EnqueueNS     int64  `json:"enqueue_ns"`
	DequeueCalls  uint64 `json:"dequeue_calls"`
	DequeueNS     int64  `json:"dequeue_ns"`
}

func newReport(o options, clock time.Duration) *report {
	return &report{
		Seed: o.seed, Smoke: o.smoke, Model: modelNote,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		ClockCostNS: float64(clock),
	}
}

// print writes every metric by name with its unit.
func (r *report) print(f io.Writer) {
	fmt.Fprintf(f, "elsc benchmark: seed %d, %s, %d CPUs, clock cost %.0f ns\n%s\n",
		r.Seed, r.GoVersion, r.NumCPU, r.ClockCostNS, r.Model)
	if r.Smoke {
		fmt.Fprintln(f, "SMOKE pass: work / 50, one rep — not a measurement")
	}
	for _, w := range r.Workloads {
		fmt.Fprintf(f, "\nworkload %s: %d reps, ops %d attempted / %d failed, noisy reps %v\n",
			w.Name, w.Reps, w.OpsAttempted, w.OpsFailed, w.NoisyReps)
		for _, fail := range w.Failures {
			fmt.Fprintf(f, "  FAILED %s\n", fail)
		}
		for i, ch := range w.SimChanged {
			if i == 5 {
				fmt.Fprintf(f, "  sim_changed ... and %d more cells (all in the result file)\n", len(w.SimChanged)-i)
				break
			}
			fmt.Fprintf(f, "  sim_changed %s\n", ch)
		}
		for _, d := range endToEnd {
			s := w.EndToEnd[d.name]
			fmt.Fprintf(f, "  %-14s %12.6g %-3s  median %.6g  q1 %.6g  q3 %.6g  min %.6g  n %d  (regression bound %.0f%%)\n",
				d.name, s.Value, d.unit, s.Median, s.Q1, s.Q3, s.Min, s.N, 100*d.regressBound(w.Name))
		}
		fmt.Fprintf(f, "  noise probe %.4g ms before a rep (fastest %.4g ms)\n", median(w.ProbeMS), slices.Min(w.ProbeMS))
		if len(w.Cells) <= 8 { // matrix_quick's 60 cells are in the result file
			for _, c := range w.Cells {
				fmt.Fprintf(f, "  cell %-24s %10.1f ms  %6.1f ns/event  %10d events  %.6g %s simulated\n",
					c.Key, c.RunMS, c.NSPerEvent, c.Events, c.Throughput, c.Unit)
			}
		}
		if w.PerLayer != nil {
			printLayer(f, w.PerLayer, true)
			kinds := make([]string, 0, len(w.SelfMS))
			for k := range w.SelfMS {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			fmt.Fprint(f, "  traced-rep self time:")
			for _, k := range kinds {
				fmt.Fprintf(f, " %s %.1f ms;", k, w.SelfMS[k])
			}
			fmt.Fprintln(f)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintln(f, "\ndirect-drive layer ledger (independent of the workload)")
		printLayer(f, r.PerLayer, false)
	}
}

func printLayer(f io.Writer, m metricSet, perRun bool) {
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok && d.perRun == perRun {
			fmt.Fprintf(f, "  %-36s %14.6g %-5s -> %s\n", d.name, v, d.unit, d.moves)
		}
	}
}

// write stores the report, and the traced round's spans beside it as
// Chrome trace-event JSON.
func (r *report) write(path string, spans *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return spans.writeChrome(strings.TrimSuffix(path, ".json") + ".trace.json")
}

// driverLine renders a single-workload run as the one-line JSON object
// the benchmark contract asks for: the end-to-end metrics of an untraced
// run, or every per-layer metric of a traced one.
func (r *report) driverLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	w := r.Workloads[0]
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayer {
			v, ok := w.PerLayer[d.name]
			if !ok {
				v = r.PerLayer[d.name]
			}
			metrics[d.name] = value{v, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.name] = value{w.EndToEnd[d.name].Value, d.unit}
		}
	}
	js, err := json.Marshal(map[string]any{
		"correct":   w.OpsFailed == 0,
		"attempted": w.OpsAttempted,
		"failed":    w.OpsFailed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(js)
}
