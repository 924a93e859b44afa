package db

import (
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
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

func small() Config {
	return Config{Clients: 6, TxnsPerClient: 20}
}

func TestAllTransactionsCommit(t *testing.T) {
	for _, policy := range []string{"reg", "elsc", "o1"} {
		for _, cpus := range []int{1, 4} {
			d := New(newMachine(cpus, policy, 7), small())
			res := d.Run()
			if !d.Done() {
				t.Fatalf("%s/%dcpu: clients did not finish", policy, cpus)
			}
			if want := uint64(6 * 20); res.Txns != want {
				t.Fatalf("%s/%dcpu: committed %d txns, want %d", policy, cpus, res.Txns, want)
			}
			if res.Throughput <= 0 {
				t.Fatalf("%s/%dcpu: throughput %v", policy, cpus, res.Throughput)
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
	New(m, small()).Run()
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
	res := New(newMachine(4, "o1", 7), Config{Clients: 16, TxnsPerClient: 25}).Run()
	if res.LockSpins == 0 {
		t.Fatal("no lock spins despite 16 clients on 8 stripes")
	}
	if res.LockBlocked == 0 {
		t.Fatal("no blocking acquisitions despite heavy stripe contention")
	}
}

// TestCheckpointerDoesNotBlockCompletion: the background writer runs
// forever by design; Done must ignore it, and it must be told to exit
// after Run. At 100 transactions a client the run outlasts the writer's
// first sleep, so it scans and flushes at least once.
func TestCheckpointerDoesNotBlockCompletion(t *testing.T) {
	d := New(newMachine(2, "elsc", 7), Config{Clients: 6})
	res := d.Run()
	if !d.Done() {
		t.Fatal("checkpointers blocked completion")
	}
	if res.Txns != uint64(6*100) {
		t.Fatalf("committed %d txns, want %d", res.Txns, 6*100)
	}
	if len(d.checkpointers) != 1 || d.checkpointers[0].Task.UserCycles < checkpointCPU {
		t.Fatal("the checkpoint writer never ran a round")
	}
	if !d.finished {
		t.Fatal("finished flag not set; checkpointers would spin forever")
	}
}

func TestTxnLatencyPercentiles(t *testing.T) {
	res := New(newMachine(2, "reg", 7), small()).Run()
	if res.MeanTxnUS <= 0 {
		t.Fatal("mean txn latency should be positive")
	}
	if res.P99TxnUS < res.MeanTxnUS/2 {
		t.Fatalf("p99 %.1fus implausibly below mean %.1fus", res.P99TxnUS, res.MeanTxnUS)
	}
}

// TestWALSerializes: the write-ahead log is a machine-global serial
// resource; with enough concurrent committers some reservation must wait.
func TestWALSerializes(t *testing.T) {
	res := New(newMachine(8, "o1", 7), Config{Clients: 24, TxnsPerClient: 20}).Run()
	if res.WALWaits == 0 {
		t.Fatal("no WAL contention despite 24 clients committing on 8 CPUs")
	}
}

func TestDeterministic(t *testing.T) {
	run := func() Result {
		return New(newMachine(4, "o1", 7), small()).Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("db workload not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
