package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/stats"
	"elsc/internal/task"
	"elsc/internal/trace"
	"elsc/internal/workload"
)

// Direct-drive layer measurements: loops over the exported constructors
// of sim, sched, kernel, workload, stats and trace, independent of which
// benchmark workload is selected. Each returns a per-operation host time
// as the median of several fixed-size batches, so one slow spell on a
// shared box moves no number.

// perOp times op over `batches` batches of n calls and returns the
// median ns per call.
func perOp(batches, n int, op func(i int)) float64 {
	per := make([]float64, batches)
	i := 0
	for b := range per {
		t0 := now()
		for k := 0; k < n; k++ {
			op(i)
			i++
		}
		per[b] = float64(now()-t0) / float64(n)
	}
	return median(per)
}

// layerBench is the budget for the direct-drive loops: batch count and
// a size divisor (the smoke pass shrinks every loop).
type layerBench struct {
	batches int
	div     int
	seed    int64
	root    string // repo root, for building cmd/sweep
	procs   int    // the GOMAXPROCS the process started with; measure runs on 1
}

func (lb layerBench) n(full int) int {
	if n := full / lb.div; n > 0 {
		return n
	}
	return 1
}

// simLayer drives sim.Engine directly.
func (lb layerBench) simLayer(out metricSet) {
	nop := func(sim.Time) {}

	// One-shot arm + fire against 1024 pending events with seeded
	// log-uniform delays of 1e2..1e6 cycles: the kernel's segment,
	// sleep and IPI traffic. Delays are drawn up front so the RNG is
	// not in the loop.
	rng := sim.NewRNG(lb.seed)
	delays := make([]sim.Cycles, 4096)
	for i := range delays {
		delays[i] = sim.Cycles(math.Pow(10, 2+4*rng.Float64()))
	}
	var e sim.Engine
	for i := 0; i < 1024; i++ {
		e.After(delays[i], "pend", nop)
	}
	oneshot := func(i int) {
		e.After(delays[i&4095], "ev", nop)
		e.Step()
	}
	perOp(1, lb.n(1<<16), oneshot) // fill the freelist and the wheel
	out.set("sim.oneshot_ns", perOp(lb.batches, lb.n(1<<18), oneshot))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	events := lb.n(1 << 18)
	for i := 0; i < events; i++ {
		oneshot(i)
	}
	runtime.ReadMemStats(&ms1)
	out.set("sim.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(events))

	// 64 periodic chains on a 4M-cycle period, staggered like the
	// per-CPU ticks: each Step fires one chain, which re-arms itself.
	var te sim.Engine
	ticks := make([]*sim.Event, 64)
	for i := range ticks {
		i := i
		ticks[i] = te.NewPeriodicEvent("tick", func(sim.Time) { te.ScheduleAfter(ticks[i], 4_000_000) })
		te.Schedule(ticks[i], sim.Time(4_000_000+uint64(i)*997))
	}
	out.set("sim.tick_rearm_ns", perOp(lb.batches, lb.n(1<<18), func(int) { te.Step() }))

	// Lazy cancel against 256 pending: arm a victim, cancel it, arm and
	// fire a live event (BenchmarkCancel's shape).
	var ce sim.Engine
	for i := 0; i < 256; i++ {
		ce.After(sim.Cycles(1+i%97), "pend", nop)
	}
	out.set("sim.cancel_ns", perOp(lb.batches, lb.n(1<<17), func(int) {
		ce.Cancel(ce.After(50, "victim", nop))
		ce.After(10, "live", nop)
		ce.Step()
	}))

	// 4096 events pending inside one wheel slot's span: the slot's
	// sorted-insert worst case (BenchmarkHeapChurn/pending4096).
	var de sim.Engine
	for i := 0; i < 4096; i++ {
		de.After(sim.Cycles(1+i%97), "pend", nop)
	}
	out.set("sim.dense_slot_ns", perOp(lb.batches, lb.n(1<<13), func(i int) {
		de.After(sim.Cycles(1+i%97), "ev", nop)
		de.Step()
	}))

	// Reset of an engine with a populated wheel and 1024 pending: what
	// every recycled cell pays at boot. Only the Reset is timed.
	var re sim.Engine
	resets := make([]float64, lb.batches*8)
	for b := range resets {
		for i := 0; i < 1024; i++ {
			re.After(delays[i], "pend", nop)
		}
		t0 := now()
		re.Reset()
		resets[b] = float64(now()-t0) / 1e3
	}
	out.set("sim.reset_us", median(resets))
}

// schedLayer drives each policy's run queue directly on one CPU.
func (lb layerBench) schedLayer(out metricSet) {
	for _, policy := range timedPolicies {
		for _, n := range []int{16, 1024} {
			s, _, idle := lb.queue(policy, n)
			// A kernel-faithful block -> schedule -> wake cycle: the
			// running task blocks, Schedule dequeues it and picks a
			// successor, and the blocked task is woken back onto the
			// queue, so the queue stays at n.
			noter, _ := s.(interface {
				NoteRunning(t *task.Task, running bool)
			})
			cur := idle
			pick := func(int) {
				prev := cur
				if prev != idle {
					prev.State = task.Interruptible
				}
				res := s.Schedule(0, prev)
				if prev != idle {
					if noter != nil && prev.OnRunqueue() {
						noter.NoteRunning(prev, false)
					}
					prev.HasCPU = false
					prev.State = task.Running
					s.AddToRunqueue(prev)
				}
				cur = idle
				if next := res.Next; next != nil {
					next.HasCPU = true
					next.Processor = 0
					next.EverRan = true
					if noter != nil && next.OnRunqueue() {
						noter.NoteRunning(next, true)
					}
					cur = next
				}
			}
			perOp(1, lb.n(1<<12), pick)
			out.set(fmt.Sprintf("sched.pick_ns.%s.n%d", policy, n), perOp(lb.batches, lb.n(1<<15), pick))
		}
		// Del + Add churn of a queued task at 256 queued.
		s, tasks, _ := lb.queue(policy, 256)
		out.set("sched.requeue_ns."+policy, perOp(lb.batches, lb.n(1<<17), func(i int) {
			t := tasks[i&255]
			s.DelFromRunqueue(t)
			s.AddToRunqueue(t)
		}))
	}
}

// queue builds policy on a one-CPU env with n runnable tasks of seeded
// priorities and counters.
func (lb layerBench) queue(policy string, n int) (sched.Scheduler, []*task.Task, *task.Task) {
	env := sched.NewEnv(1, false, func() int { return n })
	s := experiments.Factory(policy)(env)
	rng := sim.NewRNG(lb.seed)
	tasks := make([]*task.Task, n)
	for i := range tasks {
		t := task.New(i+1, "t", nil, env.Epoch)
		t.Priority = 1 + rng.Intn(40)
		t.SetCounter(env.Epoch, 1+rng.Intn(2*t.Priority))
		tasks[i] = t
		s.AddToRunqueue(t)
	}
	idle := task.New(-1, "idle/0", nil, nil)
	idle.IsIdle = true
	return s, tasks, idle
}

// nullProg is a workload-free program: pre-boxed actions in a fixed
// cycle, so a cell of these costs kernel + engine + policy and nothing
// from internal/workload or internal/ipc.
type nullProg struct {
	i, n int
}

var nullActions = [...]kernel.Action{
	kernel.Compute{Cycles: 40_000},
	kernel.Yield{},
	kernel.Compute{Cycles: 15_000},
	kernel.Sleep{Cycles: 200_000},
}

func (p *nullProg) Step(*kernel.Proc) kernel.Action {
	if p.i == p.n {
		return kernel.Exit{}
	}
	a := nullActions[p.i%len(nullActions)]
	p.i++
	return a
}

// kernelLayer measures machine boot per spec and the null-program cell.
func (lb layerBench) kernelLayer(out metricSet, clock time.Duration) {
	eng := new(sim.Engine)
	factory := experiments.Factory(experiments.O1)
	boot := func(label string, eng *sim.Engine) float64 {
		c := cell{policy: experiments.O1, spec: experiments.SpecByLabel(label), scale: experiments.DefaultScale()}
		return perOp(lb.batches, lb.n(256), func(int) {
			kernel.NewMachine(machineConfig(c, lb.seed, eng, factory))
		}) / 1e3
	}
	for _, label := range []string{"4P", "32P-NUMA", "64P-NUMA"} {
		out.set("kernel.boot_us."+label, boot(label, eng))
	}
	out.set("kernel.boot_fresh_us.32P-NUMA", boot("32P-NUMA", nil))

	// 256 null tasks on 32P-NUMA under timed o1; the policy's spans are
	// subtracted, leaving kernel + engine per event.
	pt := &policyTimer{eng: eng}
	c := cell{policy: experiments.O1, spec: experiments.SpecByLabel("32P-NUMA"), scale: experiments.DefaultScale()}
	m := kernel.NewMachine(machineConfig(c, lb.seed, eng, timedFactory(c.policy, pt)))
	for i := 0; i < 256; i++ {
		m.Spawn("null", nil, &nullProg{n: lb.n(4000)})
	}
	t0 := now()
	m.Run(func() bool { return m.Alive() == 0 })
	wall := now() - t0
	st := m.Stats()
	out.set("kernel.null_ns_per_event", float64(nonPolicy(wall, pt, clock))/float64(st.EventsFired))

	// Registry build + render of that finished machine's stats.
	out.set("stats.render_us", perOp(lb.batches, lb.n(512), func(int) {
		sink += len(st.Registry().Render())
	})/1e3)
}

// nonPolicy is a traced wall time less everything the policy timer's
// brackets cost or measured: the raw spans (which hold one clock read
// each) and the other clock read outside each span.
func nonPolicy(wall time.Duration, pt *policyTimer, clock time.Duration) time.Duration {
	for op := 0; op < nOps; op++ {
		wall -= pt.ns[op] + time.Duration(pt.calls[op])*clock
	}
	if wall < 0 {
		return 0
	}
	return wall
}

// sink keeps measured results live so the compiler cannot drop the work.
var sink int

// workloadLayer measures workload.Build per registered workload at full
// (non-quick) size on a booted 32P-NUMA machine; only Build is timed.
func (lb layerBench) workloadLayer(out metricSet) {
	eng := new(sim.Engine)
	c := cell{policy: experiments.O1, spec: experiments.SpecByLabel("32P-NUMA"), scale: experiments.DefaultScale()}
	params := experiments.WorkloadParams(c.spec, c.scale)
	for _, name := range workload.Names() {
		per := make([]float64, lb.batches*4)
		for b := range per {
			m := kernel.NewMachine(machineConfig(c, lb.seed, eng, experiments.Factory(c.policy)))
			t0 := now()
			workload.Build(name, m, params)
			per[b] = float64(now()-t0) / 1e3
		}
		out.set("workload.build_us."+name, median(per))
	}
}

// statsLayer measures Dist.Observe, which the kernel calls twice per
// schedule().
func (lb layerBench) statsLayer(out metricSet) {
	var d stats.Dist
	out.set("stats.observe_ns", perOp(lb.batches, lb.n(1<<20), func(i int) {
		d.Observe(uint64(i&0xffff) + 40)
	}))
	sink += int(d.Count())
}

// traceLayer runs volano_numa's o1 cell with the schedule() trace ring
// hooked in and without: the cost of observability when it is on. The
// end-to-end workloads run with it off.
func (lb layerBench) traceLayer(out metricSet, c cell) {
	eng := new(sim.Engine)
	off := runCell(eng, c, lb.seed, runOpts{})
	on := runCell(eng, c, lb.seed, runOpts{hook: trace.NewRing(4096).Hook()})
	out.set("trace.hook_overhead_pct", 100*(on.run.Seconds()/off.run.Seconds()-1))
}

// experimentsLayer measures the matrix worker pool (one pass of the
// quick matrix serial against two workers) and the sweep CLI end to end.
func (lb layerBench) experimentsLayer(out metricSet) error {
	sc := quickMatrixScale()
	sc.Seed = lb.seed
	var specs []experiments.MachineSpec
	for _, label := range quickMatrixSpecs {
		specs = append(specs, experiments.SpecByLabel(label))
	}
	workers := min(lb.procs, 2)
	pass := func(parallel int) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parallel))
		sc.Parallel = parallel
		t0 := now()
		experiments.RunWorkloadMatrix(experiments.DefaultPolicies(), specs, workload.Names(), sc)
		return (now() - t0).Seconds()
	}
	var serial, pooled []float64
	for i := 0; i < lb.batches; i++ {
		serial = append(serial, pass(1))
		pooled = append(pooled, pass(workers))
	}
	speedup := median(serial) / median(pooled)
	out.set("experiments.parallel_speedup", speedup)
	out.set("experiments.pool_efficiency", speedup/float64(workers))

	// The built cmd/sweep on its quick matrix, in a scratch directory so
	// the JSON it writes lands beside it and not on the repo's BENCH_*
	// files: process start, flag parsing and the JSON writers included.
	scratch := filepath.Join(lb.root, buildDir)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "sweep")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sweep")
	build.Dir = lb.root
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building cmd/sweep: %w", err)
	}
	var cli []float64
	for i := 0; i < lb.batches; i++ {
		run := exec.Command(bin, "-quick", "-exp", "matrix", "-json", "-parallel", "1", "-seed", fmt.Sprint(lb.seed))
		run.Dir = dir
		t0 := now()
		if err := run.Run(); err != nil {
			return fmt.Errorf("running sweep: %w", err)
		}
		cli = append(cli, (now() - t0).Seconds())
	}
	out.set("sweep.cli_matrix_s", median(cli))
	return nil
}
