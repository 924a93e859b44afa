// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus the §8 future-work comparisons, the ablations,
// and pure-algorithm microbenchmarks of schedule() itself.
//
// Macro benchmarks run a scaled-down simulation per iteration and report
// the paper's metric through b.ReportMetric; cmd/sweep runs the same
// experiments at full paper scale. Shapes — who wins, by how much, where
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
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// benchScale is the per-iteration workload size for macro benchmarks.
func benchScale() experiments.Scale {
	return experiments.Scale{Messages: 10, Seed: 42, HorizonSeconds: 600}
}

// BenchmarkTable2_KernelCompile regenerates Table 2: light-load compile
// times under each scheduler on UP and 2P. Metric: virtual seconds to
// finish the build (lower is better; the paper's claim is near-equality).
func BenchmarkTable2_KernelCompile(b *testing.B) {
	cfg := kbuild.Config{Units: 48, MeanCompile: 40_000_000}
	build := experiments.Custom(workload.KBuild, "48 units", workload.KBuildWith(cfg))
	for _, c := range experiments.Table2(build).Cells {
		b.Run(fmt.Sprintf("%s/%s", c.Policy, c.Spec.Label), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				secs = experiments.RunCell(nil, c, benchScale()).Result.Seconds
			}
			b.ReportMetric(secs, "virt-sec")
		})
	}
}

// benchVolano runs one VolanoMark cell per iteration and reports the
// requested metrics.
func benchVolano(b *testing.B, policy, label string, rooms int, report func(b *testing.B, r experiments.WorkloadRun)) {
	b.Helper()
	benchCell(b, experiments.Volano(rooms).On(experiments.SpecByLabel(label), policy), report)
}

// benchCell runs one cell per iteration and reports the last run.
func benchCell(b *testing.B, c experiments.Cell, report func(b *testing.B, r experiments.WorkloadRun)) {
	b.Helper()
	var last experiments.WorkloadRun
	for i := 0; i < b.N; i++ {
		last = experiments.RunCell(nil, c, benchScale())
	}
	report(b, last)
}

// BenchmarkFig2_RecalcEntries regenerates Figure 2: recalculation-loop
// entries per run (log-scale contrast between schedulers).
func BenchmarkFig2_RecalcEntries(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 5, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(float64(r.Stats.Recalcs), "recalcs")
				})
			})
		}
	}
}

// BenchmarkFig3_Throughput regenerates Figure 3: message throughput by
// room count. The reg series should fall with rooms; elsc should not.
func BenchmarkFig3_Throughput(b *testing.B) {
	for _, label := range []string{"UP", "1P", "4P"} {
		for _, rooms := range []int{5, 20} {
			for _, policy := range []string{experiments.Reg, experiments.ELSC} {
				b.Run(fmt.Sprintf("%s/%s/rooms%d", policy, label, rooms), func(b *testing.B) {
					benchVolano(b, policy, label, rooms, func(b *testing.B, r experiments.WorkloadRun) {
						b.ReportMetric(r.Result.Throughput, "msgs/sec")
					})
				})
			}
		}
	}
}

// BenchmarkFig4_ScalingFactor regenerates Figure 4: 20-room/5-room
// throughput ratio (1.0 = perfect scaling with thread count).
func BenchmarkFig4_ScalingFactor(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				var factor float64
				spec := experiments.SpecByLabel(label)
				for i := 0; i < b.N; i++ {
					lo := experiments.RunCell(nil, experiments.Volano(5).On(spec, policy), benchScale())
					hi := experiments.RunCell(nil, experiments.Volano(20).On(spec, policy), benchScale())
					factor = hi.Result.Throughput / lo.Result.Throughput
				}
				b.ReportMetric(factor, "scaling")
			})
		}
	}
}

// BenchmarkFig5_ScheduleCost regenerates Figure 5: cycles per schedule()
// and tasks examined per call.
func BenchmarkFig5_ScheduleCost(b *testing.B) {
	for _, label := range []string{"UP", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(r.Stats.CyclesPerSchedule(), "cyc/sched")
					b.ReportMetric(r.Stats.ExaminedPerSchedule(), "examined")
				})
			})
		}
	}
}

// BenchmarkFig6_CallsAndMigrations regenerates Figure 6: schedule() call
// totals and tasks dispatched on a new processor (10-room runs).
func BenchmarkFig6_CallsAndMigrations(b *testing.B) {
	for _, label := range []string{"UP", "2P", "4P"} {
		for _, policy := range []string{experiments.Reg, experiments.ELSC} {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					b.ReportMetric(float64(r.Stats.SchedCalls), "sched-calls")
					b.ReportMetric(float64(r.Stats.Migrations), "migrations")
				})
			})
		}
	}
}

// BenchmarkProfile_SchedulerShare regenerates the §4 kernel-profile claim:
// the stock scheduler burns 37-55% of kernel time under VolanoMark.
func BenchmarkProfile_SchedulerShare(b *testing.B) {
	for _, policy := range []string{experiments.Reg, experiments.ELSC} {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "UP", 20, func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(100*r.Stats.SchedulerShareOfKernel(), "sched-%kernel")
			})
		})
	}
}

// BenchmarkAlt_FutureWorkSchedulers compares the §8 alternative designs
// on the 4P stress configuration.
func BenchmarkAlt_FutureWorkSchedulers(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "4P", 10, func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
				b.ReportMetric(r.Stats.CyclesPerSchedule(), "cyc/sched")
			})
		})
	}
}

// BenchmarkLockWait_8CPU measures run-queue lock spin per schedule() on an
// eight-processor VolanoMark run — the scaling question past the paper's
// hardware. The per-CPU-lock policies (mq, o1) should sit an order of
// magnitude below the global-lock ones.
func BenchmarkLockWait_8CPU(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			benchVolano(b, policy, "8P", 10, func(b *testing.B, r experiments.WorkloadRun) {
				spin := 0.0
				if r.Stats.SchedCalls > 0 {
					spin = float64(r.Stats.SpinCycles) / float64(r.Stats.SchedCalls)
				}
				b.ReportMetric(spin, "spin-cyc/sched")
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
			})
		})
	}
}

// BenchmarkLockWait_Scale extends the lock-wait headline to 16 and 32
// processors: the global-lock policies' spin grows with every doubling,
// while the per-CPU-lock policies stay near zero.
func BenchmarkLockWait_Scale(b *testing.B) {
	for _, label := range []string{"16P", "32P"} {
		for _, policy := range experiments.Policies {
			b.Run(fmt.Sprintf("%s/%s", policy, label), func(b *testing.B) {
				benchVolano(b, policy, label, 10, func(b *testing.B, r experiments.WorkloadRun) {
					spin := 0.0
					if r.Stats.SchedCalls > 0 {
						spin = float64(r.Stats.SpinCycles) / float64(r.Stats.SchedCalls)
					}
					b.ReportMetric(spin, "spin-cyc/sched")
					b.ReportMetric(r.Result.Throughput, "msgs/sec")
				})
			})
		}
	}
}

// BenchmarkNUMA_DomainAwareness races domain-aware o1 against its
// topology-blind ablation on the 32P-NUMA spec at marginal load, the
// regime where the steal path runs constantly. Metrics: throughput and
// cross-domain migrations — the acceptance pair for the NUMA work.
func BenchmarkNUMA_DomainAwareness(b *testing.B) {
	arms := experiments.AblateTopology(experiments.SpecByLabel("32P-NUMA"), 3).Cells
	for i, name := range []string{"domain-aware", "topology-blind"} {
		b.Run(name, func(b *testing.B) {
			benchCell(b, arms[i], func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
				b.ReportMetric(float64(r.Stats.CrossDomainMigrations), "cross-dom")
				b.ReportMetric(float64(r.Stats.RemoteCycles)/1e6, "remote-Mcyc")
			})
		})
	}
}

// BenchmarkNUMA_Policies reports every policy's throughput on the
// 32P-NUMA machine with the scalable network stack — the 32-processor
// successor to the 8P lock-wait table.
func BenchmarkNUMA_Policies(b *testing.B) {
	for _, c := range experiments.Numa(experiments.SpecByLabel("32P-NUMA"), 10).Cells {
		b.Run(c.Policy, func(b *testing.B) {
			benchCell(b, c, func(b *testing.B, r experiments.WorkloadRun) {
				b.ReportMetric(r.Result.Throughput, "msgs/sec")
				b.ReportMetric(float64(r.Stats.CrossDomainMigrations), "cross-dom")
			})
		})
	}
}

// BenchmarkFutureWork_Webserver regenerates the §8 Apache question:
// throughput and latency under each scheduler.
func BenchmarkFutureWork_Webserver(b *testing.B) {
	cfg := webserver.Config{Workers: 32, Requests: 4000}
	serve := experiments.Custom(workload.WebServer, "4000 requests", workload.WebserverWith(cfg))
	for _, c := range experiments.Webserver(experiments.SpecByLabel("2P"), serve).Cells {
		b.Run(c.Policy, func(b *testing.B) {
			benchCell(b, c, func(b *testing.B, r experiments.WorkloadRun) {
				meanLat, _ := r.Result.Extra("mean_lat_ms")
				maxLat, _ := r.Result.Extra("max_lat_ms")
				b.ReportMetric(r.Result.Throughput, "req/sec")
				b.ReportMetric(meanLat, "mean-lat-ms")
				b.ReportMetric(maxLat, "max-lat-ms")
			})
		})
	}
}

// BenchmarkAblation_SearchLimit sweeps ELSC's per-list examination cap
// around the paper's ncpu/2+5 choice.
func BenchmarkAblation_SearchLimit(b *testing.B) {
	for _, limit := range []int{1, 7, 40} {
		b.Run(fmt.Sprintf("limit%d", limit), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				m := kernel.NewMachine(kernel.Config{
					CPUs: 4, SMP: true, Seed: 42,
					NewScheduler: func(env *sched.Env) sched.Scheduler {
						return elsc.NewWithConfig(env, elsc.Config{SearchLimit: limit})
					},
					MaxCycles: 600 * kernel.DefaultHz,
				})
				res := volano.Build(m, volano.Config{Rooms: 10, MessagesPerUser: 10}).Run()
				thr = res.Throughput
			}
			b.ReportMetric(thr, "msgs/sec")
		})
	}
}

// BenchmarkAblation_UPShortcut measures the uniprocessor mm-match early
// exit (§5.2), the mechanism behind ELSC's Table 2 edge on UP.
func BenchmarkAblation_UPShortcut(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				m := kernel.NewMachine(kernel.Config{
					CPUs: 1, SMP: false, Seed: 42,
					NewScheduler: func(env *sched.Env) sched.Scheduler {
						return elsc.NewWithConfig(env, elsc.Config{DisableUPShortcut: disable})
					},
					MaxCycles: 600 * kernel.DefaultHz,
				})
				res := volano.Build(m, volano.Config{Rooms: 5, MessagesPerUser: 10}).Run()
				thr = res.Throughput
			}
			b.ReportMetric(thr, "msgs/sec")
		})
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
// a prepopulated run queue — the pure O(n) scan versus the table lookup
// versus the O(1) bitmap pick, in real nanoseconds and simulated cycles.
//
// Two queues. "tasksN" is the uniform one: nil MM, never-run, nobody
// running, an idle prev on a UP machine — every goodness() input the same
// from task to task, so whatever branches the scan takes are perfectly
// predicted. "mixedN" (reg and elsc) is what a 4P chat load presents: two
// address spaces, tasks last run on any of four CPUs, an eighth of the
// counters spent, every CPU's current task HasCPU, a non-idle prev with an
// MM, the calling CPU rotating and one task's affinity and MM re-drawn per
// call. ns/visit is host time per examined task, the number to hold against
// a benchmark cell's.
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

// reportSchedule adds simulated cycles per call and host ns per examined
// task to a schedule() microbenchmark's result.
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
	sc := benchWorkloadScale()
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

// benchWorkloadScale sizes one registry-workload cell per iteration.
func benchWorkloadScale() experiments.Scale {
	return experiments.Scale{Messages: 10, Seed: 42, HorizonSeconds: 600, Quick: true}
}

// BenchmarkWorkload_DB races every policy on the syscall-heavy OLTP
// workload at 8 CPUs. Metrics: transaction throughput and p99 commit
// latency — the regime where wake/dispatch cost, not compute, decides.
func BenchmarkWorkload_DB(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			var last experiments.WorkloadRun
			for i := 0; i < b.N; i++ {
				last = experiments.RunCell(nil, experiments.Load(workload.DB).On(experiments.SpecByLabel("8P"), policy), benchWorkloadScale())
			}
			b.ReportMetric(last.Result.Throughput, "txns/s")
			if p99, ok := last.Result.Extra("p99_txn_us"); ok {
				b.ReportMetric(p99, "p99-us")
			}
		})
	}
}

// BenchmarkWorkload_WakeStorm races every policy on the mass-wakeup
// workload on the 32P-NUMA spec. Metric: p99 wakeup-to-run latency — the
// tail the last herd member pays.
func BenchmarkWorkload_WakeStorm(b *testing.B) {
	for _, policy := range experiments.Policies {
		b.Run(policy, func(b *testing.B) {
			var last experiments.WorkloadRun
			for i := 0; i < b.N; i++ {
				last = experiments.RunCell(nil, experiments.Load(workload.WakeStorm).On(experiments.SpecByLabel("32P-NUMA"), policy), benchWorkloadScale())
			}
			if p99, ok := last.Result.Extra("p99_us"); ok {
				b.ReportMetric(p99, "p99-us")
			}
			b.ReportMetric(last.Result.Throughput, "wakes/s")
		})
	}
}
