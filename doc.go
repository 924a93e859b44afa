// Package elsc is a full reproduction of "Scalable Linux Scheduling"
// (Stephen Molloy and Peter Honeyman, CITI Technical Report 01-7 /
// FREENIX 2001): the ELSC table-based scheduler, the stock Linux
// 2.3.99-pre4 scheduler it improves on, and a deterministic discrete-event
// kernel simulator to run them in — per-CPU dispatch, timer ticks and
// quanta, wait queues with wake-up preemption, the global run-queue
// spinlock, and a cache-affinity cost model.
//
// Five scheduling policies are drop-in replacements for one another
// behind the same run-queue interface (the paper's design goal 1):
//
//   - Vanilla ("reg"): the stock 2.3.99-pre4 single-queue O(n) scan.
//   - ELSC ("elsc"): the paper's sorted 30-list table.
//   - Heap ("heap"): the §8 future-work per-processor max-heaps.
//   - MultiQueue ("mq"): the §8 future-work per-CPU queues and locks.
//   - O1 ("o1"): the Linux 2.5 O(1) design that lineage led to — per-CPU
//     active/expired priority arrays with a find-first-set bitmap,
//     quantum recharge on array swap, and pull-based load balancing.
//
// All five are held to a shared contract by the conformance suite in
// internal/sched/conformance: no task lost or duplicated, affinity masks
// respected, real-time tasks always preempt SCHED_OTHER, equal SCHED_RR
// tasks take turns, and a task re-filed after a class change leads its
// equals (2.3.99's move_last / move_first, which each policy delivers where
// it files a task rather than through a method of the interface).
//
// The package exposes three layers:
//
//   - Machine: build a simulated SMP machine with a chosen scheduler, spawn
//     tasks with programmed behavior, run, and read /proc-style statistics.
//   - Workloads: a registry of six named workloads runnable on any
//     machine (see below).
//   - Experiments: regenerate every table and figure from the paper's
//     evaluation section, plus lock-contention, NUMA, and policy x
//     workload matrix studies on machines past the paper's hardware
//     (8 to 64 CPUs, flat or cache-domained).
//
// # The workload registry
//
// Workloads are unified behind one registry, mirroring the policy
// registry: each registered workload builds on any machine from uniform
// sizing knobs (WorkloadParams), and every run is measured the same way
// into a common WorkloadResult — throughput in a workload-declared unit,
// a completion flag, and name-ordered per-workload extras. Six are
// registered:
//
//   - "volano": the VolanoMark chat benchmark (the paper's stress test).
//   - "kbuild": the make -j4 kernel compile (its light-load control).
//   - "webserver": the §8 Apache-style future-work question.
//   - "latency": steady wake-to-dispatch probes under hog load.
//   - "db": a syscall-heavy OLTP server — short bursts, shared lock
//     stripes, a serialized buffer pool and write-ahead log, background
//     checkpoint writers. Kernel crossings dominate compute, so
//     run-queue placement decides throughput.
//   - "wakestorm": synchronized mass wake-ups of a parked herd,
//     measuring wakeup-to-run tail latency (p50/p99/max) per storm.
//
// Machine.RunWorkload(name, params) runs any of them by name;
// RunVolanoMark and RunWebServer take the chat and web benchmarks' full
// Config instead, and report the same WorkloadResult (the chat run's
// Ops are its deliveries). cmd/sweep's matrix
// experiment races every policy against every workload on a chosen set
// of machine specs and records each cell in BENCH_sweep.json.
//
// # Topology and cache domains
//
// Machines past the paper's hardware can declare a NUMA-style topology
// (MachineConfig.CacheDomains, or kernel.Config.Topology): CPUs are
// grouped into cache domains, contiguous blocks sharing a last-level
// cache. The cost model then distinguishes three tiers of migration:
// staying on the last CPU (pollution-scaled refill), moving inside the
// domain (CacheRefillMax), and crossing domains (CrossDomainRefillMax,
// plus a sustained RemoteAccessPct execution penalty until the task's
// pages rehome after RehomeCycles of foreign execution — first-touch
// memory with AutoNUMA-style page migration).
//
// The O(1) scheduler is topology-aware, mirroring the 2.5→2.6
// sched_domains evolution: idle steal exhausts in-domain victims before
// crossing, a cross-domain steal requires a real imbalance rather than a
// lone queued task, the periodic balancer demands a doubled imbalance
// threshold across domains and then pulls a batch to amortize the
// interconnect refill, and a starvation guard force-swaps the arrays
// when the expired array has waited too long. o1.Config's TopologyBlind
// (internal/sched/o1) is the ablation baseline; the experiments package
// regenerates the numa table and the domain-awareness ablation.
//
// # Interactivity
//
// The O(1) scheduler also carries the 2.5 kernel's sleep_avg estimator.
// The kernel credits a task's sleep_avg while it blocks and drains it
// while it runs (clamped at CostModel.MaxSleepAvg); o1 maps the ratio
// onto a ±5-level dynamic-priority bonus in its bitmap arrays, uses it
// for wake-up preemption (TASK_PREEMPTS_CURR), requeues interactive
// tasks into the active array on quantum expiry (bounded by the
// starvation clock, 128 schedule() calls), tick-preempts when a strictly
// better level waits, and round-robins same-level interactive tasks every
// two ticks (TIMESLICE_GRANULARITY). The kernel wake path adds
// SD_WAKE_IDLE placement: a syscall-context wake prefers an idle CPU in
// the task's own cache domain, then the waker's. o1.Config's
// InteractivityOff switches both off together for ablation;
// Stats counts WakeIdlePlacements and TimesliceRotations,
// and the cross-policy latency invariant suite in
// internal/sched/conformance holds every policy to a bounded
// wakeup-to-run worst case.
//
// # CPU hotplug and the watchdog
//
// Processors hot-unplug and re-plug mid-run (Machine.OfflineCPU /
// OnlineCPU): the dying CPU's running task is preempted and re-queued,
// its private queue drains through the same Scheduler.Drain a hot policy
// swap uses (the shared-queue policies have nothing to drain), its
// preallocated tick/dispatch events park, in-flight IPIs re-route to a
// survivor, and tasks affined solely to it widen to run anywhere (Linux
// cpuset fallback) until their CPU returns and the saved mask re-pins.
// The last online CPU refuses to go down. An opt-in starvation/lockup
// watchdog (MachineConfig.Watchdog) sweeps every 10 ticks — allocation
// free, like the rest of the event path — and reports two kinds of
// violation, each at its virtual timestamp: starved runnable tasks
// (waiting 8 of the largest runnable quantum, scaled by the run-queue
// depth), and any failure of the machine's invariants (Machine.CheckAll in
// internal/kernel: the delivery bookkeeping and rule, the census that no
// runnable task is lost from every queue, the per-CPU events, and every
// online CPU's timer chain), with the failed predicate named. The
// scenario fuzzer arms it everywhere and injects hotplug storms; the
// machine-level conformance matrix drives scripted storms over every
// policy on 8P and 32P-NUMA shapes.
//
// # The event engine
//
// Everything above runs on internal/sim, a discrete-event engine built so
// the simulator's own hot path honors the paper's thesis about hot paths:
// O(1) where it can be, allocation-free in steady state. The pending set is
// one hierarchical timer wheel (2048 level-0 slots, 128 at each of two
// coarser levels, doubly linked slot lists, one occupancy bitmap) with one
// arm path and one fire path; a deadline past the wheel's ~43s horizon
// waits in the top level and is re-filed there once a lap. Fired events
// are recycled through a freelist, and the kernel layer arms its recurring
// events (timer ticks, reschedule IPIs, context-switch and segment
// completions) as caller-owned objects re-armed in place with prebound
// callbacks, so a steady-state schedule→dispatch cycle performs zero
// allocations (asserted by testing.AllocsPerRun in the engine suite).
// A program issues a syscall with Proc.Call, which writes it into the
// proc's own slot — the one copy the kernel runs — so no workload keeps a
// scratch Syscall of its own.
// Cancellation is an O(1) unlink: the event leaves its slot at once and may
// be armed again. Determinism is untouched — events fire in exact (time,
// scheduling-order) sequence, so a seed still reproduces every run
// byte-for-byte; only the wall-clock per event changed.
//
// Because every simulation is single-threaded and deterministic,
// independent experiment cells (policy x workload x machine) run on a
// worker pool: cmd/sweep's -parallel N flag (default GOMAXPROCS) fans
// the matrix out and reassembles results in input order, so the
// virtual-time results in BENCH_sweep.json are byte-identical at any
// pool width. What the harness costs in host time is measured in one
// place, `bash benchmark/run.sh` (benchmark/README.md lists its metrics).
//
// # Quick start
//
//	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 4, SMP: true, Scheduler: elsc.ELSC})
//	res := m.RunVolanoMark(elsc.VolanoConfig{Rooms: 10})
//	fmt.Printf("%.0f messages/second\n", res.Throughput)
//	fmt.Print(m.Stats().Registry().Render())
//
// Determinism: a machine's Seed fixes every random draw; the same
// configuration reproduces a run cycle-for-cycle.
package elsc
