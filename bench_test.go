// Benchmarks: one macro benchmark over every cell of the experiment
// catalog — the paper's evaluation (§6), the §8 future-work comparisons,
// the ablations and the workload matrix — plus pure-algorithm
// microbenchmarks of schedule(), run-queue churn and machine boot.
//
// BenchmarkCatalog runs a scaled-down simulation per iteration and reports
// the cell's throughput through b.ReportMetric; cmd/sweep renders the same
// cells' tables at full paper scale. Shapes — who wins, by how much, where
// the crossover falls — are the reproduction target, not absolute numbers.
package elsc_test

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/task"
	"elsc/internal/workload"
)

// BenchmarkCatalog runs every distinct cell of experiments.Catalog — what
// `sweep -exp all` runs, at its default matrix selection — one cell per
// iteration at QuickScale, named by the first experiment that declares it.
// Metrics: throughput in the cell's own unit, and simulated cycles per
// schedule() call.
func BenchmarkCatalog(b *testing.B) {
	sc := experiments.QuickScale()
	specs := []experiments.MachineSpec{experiments.SpecByLabel("8P"), experiments.SpecByLabel("32P-NUMA")}
	seen := map[experiments.CellID]bool{}
	for _, e := range experiments.Catalog(experiments.DefaultPolicies(), specs, workload.Names()) {
		for _, c := range e.Cells {
			if seen[c.CellID] {
				continue
			}
			seen[c.CellID] = true
			b.Run(e.Name+"/"+c.Key(), func(b *testing.B) {
				var last experiments.WorkloadRun
				for i := 0; i < b.N; i++ {
					last = experiments.RunCell(nil, c, sc)
				}
				b.ReportMetric(last.Result.Throughput, last.Result.Unit)
				b.ReportMetric(last.Stats.CyclesPerSchedule(), "cyc/sched")
			})
		}
	}
}

// microPolicy builds the policy a microbenchmark drives directly.
func microPolicy(name string, env *sched.Env) sched.Scheduler {
	switch name {
	case "reg":
		return vanilla.New(env)
	case "elsc":
		return elsc.New(env)
	default:
		return o1.New(env)
	}
}

// BenchmarkMicro_Schedule measures one schedule() decision in isolation on
// a prepopulated run queue — the simulated O(n) scan versus the table
// lookup versus the O(1) bitmap pick, in real nanoseconds and simulated
// cycles.
//
// Two queues. "tasksN" is the uniform one: nil MM, never-run, nobody
// running, an idle prev on a UP machine — every goodness() input the same
// from task to task, so whatever branches the scan takes are perfectly
// predicted. "mixedN" (reg and elsc) is what a 4P chat load presents: two
// address spaces, tasks last run on any of four CPUs, an eighth of the
// counters spent, every CPU's current task HasCPU, a non-idle prev with an
// MM, the calling CPU rotating and one task's affinity and MM re-drawn per
// call. ns/visit is host time per examined task as the simulation counts
// them (Result.Examined): reg still charges its full walk but scores only
// the tasks that can win, so its ns/visit falls with queue length and is
// not the cost of one goodness() any more. sim-cycles/op is the simulated
// cost, which no host-side change may move.
func BenchmarkMicro_Schedule(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		for _, policy := range []string{"reg", "elsc", "o1"} {
			b.Run(fmt.Sprintf("%s/tasks%d", policy, n), func(b *testing.B) {
				env := sched.NewEnv(1, false, func() int { return n })
				s := microPolicy(policy, env)
				rng := sim.NewRNG(1)
				for i := 0; i < n; i++ {
					t := task.New(i+1, "t", nil, env.Epoch)
					t.Priority = 1 + rng.Intn(40)
					t.SetCounter(env.Epoch, 1+rng.Intn(2*t.Priority))
					s.AddToRunqueue(t)
				}
				idle := task.New(-1, "idle", nil, nil)
				idle.IsIdle = true

				var cycles, examined uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := s.Schedule(0, idle)
					cycles += res.Cycles
					examined += uint64(res.Examined)
					if res.Next != nil {
						// Put it back so the queue size is stable.
						next := res.Next
						s.DelFromRunqueue(next)
						s.AddToRunqueue(next)
					}
				}
				reportSchedule(b, cycles, examined)
			})
		}
		for _, policy := range []string{"reg", "elsc"} {
			b.Run(fmt.Sprintf("%s/mixed%d", policy, n), func(b *testing.B) {
				const ncpu = 4
				env := sched.NewEnv(ncpu, true, func() int { return n })
				s := microPolicy(policy, env)
				rng := sim.NewRNG(1)
				mms := []*task.MM{{ID: 1, Name: "client"}, {ID: 2, Name: "server"}}
				tasks := make([]*task.Task, n)
				for i := range tasks {
					t := task.New(i+1, "t", mms[rng.Intn(2)], env.Epoch)
					t.EverRan, t.Processor = true, rng.Intn(ncpu)
					if i%8 != 0 {
						t.SetCounter(env.Epoch, 1+rng.Intn(2*t.Priority))
					} else {
						t.SetCounter(env.Epoch, 0)
					}
					tasks[i] = t
					s.AddToRunqueue(t)
				}
				// One running task per CPU: the prev its schedule() is
				// entered with. The stock scheduler keeps them queued,
				// where the other three are "running elsewhere"; ELSC
				// keeps a running task outside its table.
				prevs := make([]*task.Task, ncpu)
				for cpu := range prevs {
					t := task.New(n+cpu+1, "cur", mms[cpu%2], env.Epoch)
					t.EverRan, t.Processor, t.HasCPU = true, cpu, true
					prevs[cpu] = t
					if policy == "reg" {
						s.AddToRunqueue(t)
					}
				}

				var cycles, examined uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cpu := i % ncpu
					churn := tasks[rng.Intn(n)]
					churn.Processor, churn.MM = rng.Intn(ncpu), mms[rng.Intn(2)]
					res := s.Schedule(cpu, prevs[cpu])
					cycles += res.Cycles
					examined += uint64(res.Examined)
					if next := res.Next; next != nil {
						s.DelFromRunqueue(next)
						s.AddToRunqueue(next)
					}
					if policy == "elsc" {
						s.DelFromRunqueue(prevs[cpu])
					}
				}
				reportSchedule(b, cycles, examined)
			})
		}
	}
}

// reportSchedule adds simulated cycles per call and host ns per simulated
// examined task to a schedule() microbenchmark's result.
func reportSchedule(b *testing.B, cycles, examined uint64) {
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	if examined > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(examined), "ns/visit")
	}
}

// BenchmarkMicro_RunqueueOps measures add/del churn, where ELSC pays its
// table-indexing overhead.
func BenchmarkMicro_RunqueueOps(b *testing.B) {
	for _, policy := range []string{"reg", "elsc", "o1"} {
		b.Run(policy, func(b *testing.B) {
			env := sched.NewEnv(1, false, func() int { return 256 })
			s := microPolicy(policy, env)
			tasks := make([]*task.Task, 256)
			for i := range tasks {
				tasks[i] = task.New(i+1, "t", nil, env.Epoch)
				s.AddToRunqueue(tasks[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tasks[i%len(tasks)]
				s.DelFromRunqueue(t)
				s.AddToRunqueue(t)
			}
		})
	}
}

// BenchmarkMicro_Boot measures kernel.NewMachine alone — CPUs, idle tasks,
// stats, and the policy's queue set — per policy on the two specs the
// quick matrix boots, on a recycled engine as every matrix cell does. ns,
// B/op and allocs/op; TestBootAllocBudget in internal/experiments holds
// the last two to a ceiling.
func BenchmarkMicro_Boot(b *testing.B) {
	sc := experiments.QuickScale()
	for _, label := range []string{"8P", "32P-NUMA"} {
		spec := experiments.SpecByLabel(label)
		for _, policy := range experiments.Policies {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				eng := new(sim.Engine)
				experiments.NewMachineOn(eng, spec, policy, sc)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bootSink = experiments.NewMachineOn(eng, spec, policy, sc)
				}
			})
		}
	}
}

var bootSink *kernel.Machine
