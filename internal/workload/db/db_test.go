package db

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

func newMachine(cpus int, policy string, seed int64) *kernel.Machine {
	factory := map[string]kernel.SchedulerFactory{
		"reg":  func(env *sched.Env) sched.Scheduler { return vanilla.New(env) },
		"elsc": func(env *sched.Env) sched.Scheduler { return elsc.New(env) },
		"o1":   func(env *sched.Env) sched.Scheduler { return o1.New(env) },
	}[policy]
	return kernel.NewMachine(kernel.Config{
		CPUs:         cpus,
		SMP:          cpus > 1,
		Seed:         seed,
		NewScheduler: factory,
		MaxCycles:    600 * kernel.DefaultHz,
	})
}

// runSeconds drives m until done holds or the horizon passes, and
// returns the elapsed virtual seconds (test machines start at time zero).
func runSeconds(m *kernel.Machine, done func() bool) float64 {
	m.Run(done)
	return float64(m.Now()) / float64(m.Hz())
}

// run drives d's machine until d completes.
func run(d *DB) *DB {
	d.m.Run(d.Done)
	return d
}

func small() Config {
	return Config{Clients: 6, TxnsPerClient: 20}
}

func TestAllTransactionsCommit(t *testing.T) {
	for _, policy := range []string{"reg", "elsc", "o1"} {
		for _, cpus := range []int{1, 4} {
			d := New(newMachine(cpus, policy, 7), small())
			secs := runSeconds(d.m, d.Done)
			if !d.Done() {
				t.Fatalf("%s/%dcpu: clients did not finish", policy, cpus)
			}
			txns := d.TxnLatency().Count()
			if want := uint64(6 * 20); txns != want {
				t.Fatalf("%s/%dcpu: committed %d txns, want %d", policy, cpus, txns, want)
			}
			if tput := float64(txns) / secs; !(tput > 0) {
				t.Fatalf("%s/%dcpu: throughput %v", policy, cpus, tput)
			}
		}
	}
}

// TestSyscallHeavy pins down the workload's defining property: kernel
// crossings dominate user compute. With p pages per transaction each
// commit makes p+2 serialized syscalls around ~15k cycles of bursts, so
// system time must exceed user time — the opposite of kbuild.
func TestSyscallHeavy(t *testing.T) {
	m := newMachine(2, "o1", 7)
	run(New(m, small()))
	st := m.Stats()
	if st.SyscallCycles <= st.TaskCycles {
		t.Fatalf("syscall cycles %d should exceed user cycles %d for an OLTP workload",
			st.SyscallCycles, st.TaskCycles)
	}
}

// TestLockStripesContend: with sixteen clients hammering the eight
// stripes, the spin-then-block path must actually fire — both spins and
// suspensions.
func TestLockStripesContend(t *testing.T) {
	d := run(New(newMachine(4, "o1", 7), Config{Clients: 16, TxnsPerClient: 25}))
	if d.LockSpins() == 0 {
		t.Fatal("no lock spins despite 16 clients on 8 stripes")
	}
	if d.LockBlocked() == 0 {
		t.Fatal("no blocking acquisitions despite heavy stripe contention")
	}
}

// TestCheckpointerDoesNotBlockCompletion: the background writer runs
// forever by design; Done must ignore it, and it must exit once Done
// holds. At 100 transactions a client the run outlasts the writer's first
// sleep, so it scans and flushes at least once.
func TestCheckpointerDoesNotBlockCompletion(t *testing.T) {
	d := run(New(newMachine(2, "elsc", 7), Config{Clients: 6}))
	if !d.Done() {
		t.Fatal("checkpointers blocked completion")
	}
	if n := d.TxnLatency().Count(); n != uint64(6*100) {
		t.Fatalf("committed %d txns, want %d", n, 6*100)
	}
	if len(d.checkpointers) != 1 || d.checkpointers[0].Task.UserCycles < checkpointCPU {
		t.Fatal("the checkpoint writer never ran a round")
	}
	d.m.Run(func() bool { return d.m.Alive() == 0 })
	if !d.checkpointers[0].Exited() {
		t.Fatal("the checkpoint writer outlived the workload; it would spin forever")
	}
}

func TestTxnLatencyPercentiles(t *testing.T) {
	lat := run(New(newMachine(2, "reg", 7), small())).TxnLatency()
	if lat.Mean() <= 0 {
		t.Fatal("mean txn latency should be positive")
	}
	if p99 := float64(lat.ApproxPercentile(0.99)); p99 < lat.Mean()/2 {
		t.Fatalf("p99 %.0f cycles implausibly below mean %.0f", p99, lat.Mean())
	}
}

// TestWALSerializes: the write-ahead log is a machine-global serial
// resource; with enough concurrent committers some reservation must wait.
func TestWALSerializes(t *testing.T) {
	d := run(New(newMachine(8, "o1", 7), Config{Clients: 24, TxnsPerClient: 20}))
	if d.WALWaits() == 0 {
		t.Fatal("no WAL contention despite 24 clients committing on 8 CPUs")
	}
}

func TestDeterministic(t *testing.T) {
	// The whole latency histogram, the contention counters and the
	// run's end instant.
	type outcome struct {
		lat                      stats.Dist
		spins, blocked, walWaits uint64
		end                      sim.Time
	}
	measure := func() outcome {
		d := run(New(newMachine(4, "o1", 7), small()))
		return outcome{*d.TxnLatency(), d.LockSpins(), d.LockBlocked(), d.WALWaits(), d.m.Now()}
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("db workload not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
