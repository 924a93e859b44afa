// Package db simulates a syscall-heavy OLTP database server — the
// workload class the ROADMAP names and RackSched (Zhu et al.) argues is
// where queue placement dominates: short CPU bursts separated by frequent
// blocking kernel crossings. Each client connection runs a loop of small
// transactions; a transaction parses and plans (a short burst), acquires
// one of a small set of shared row-lock stripes (spin-then-block, like a
// futex), reads a few pages through the serialized buffer-pool latch
// (occasionally missing to disk), applies its update, appends a commit
// record through the serialized write-ahead log, and releases the lock.
// Background checkpoint writers wake periodically, scan dirty pages, and
// flush through the same WAL resource.
//
// Unlike VolanoMark, almost no user CPU is burned between kernel
// crossings: with p pages per transaction a commit makes p+2 syscalls plus
// 2-4 lock operations around ~15k cycles of user work, so the scheduler's
// wake/dispatch path — not the workload's own compute — is the dominant
// cost, and run-queue placement decides throughput.
package db

import (
	"fmt"

	"elsc/internal/ipc"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

// Config sizes the database workload. Zero fields take the defaults.
type Config struct {
	// Clients is the number of connection worker tasks (default 32).
	Clients int
	// TxnsPerClient is how many transactions each client commits
	// (default 100).
	TxnsPerClient int
}

// The server's shape and the simulated cycle prices of the transaction
// path, calibrated like the other workloads for a 400 MHz machine.
const (
	// lockStripes is the number of shared row-lock stripes.
	lockStripes = 8
	// pagesPerTxn is the buffer-pool reads per transaction.
	pagesPerTxn = 4
	// lockSpins is how many try-then-yield rounds a client performs on
	// a contended stripe before suspending: the adaptive spin of a
	// user-space mutex.
	lockSpins = 2
	// missRate is the probability a page read misses the buffer pool
	// and sleeps for a read I/O wait.
	missRate = 0.06
	// diskLatency scales the read I/O wait (2 ms), drawn from
	// [diskLatency/2, 2*diskLatency).
	diskLatency = 800_000
	// checkpointers is the number of background checkpoint writers.
	checkpointers = 1
	// checkpointInterval is the mean sleep between checkpoint rounds
	// (100 ms).
	checkpointInterval = 40_000_000

	parseCost     = 5000    // parse + plan burst before the lock
	applyCost     = 9000    // row-update burst under the lock
	pageRead      = 6000    // one buffer-pool read syscall
	bufSerialHold = 1500    // serialized buffer-pool latch hold per read
	walWrite      = 5000    // commit-record append syscall
	walSerialHold = 2500    // serialized WAL append hold
	lockTry       = 150     // one lock attempt
	checkpointCPU = 400_000 // dirty-page scan burst per checkpoint round
	checkpointWAL = 60_000  // checkpoint's serialized WAL hold
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Clients == 0 {
		out.Clients = 32
	}
	if out.TxnsPerClient == 0 {
		out.TxnsPerClient = 100
	}
	return out
}

// DB is a constructed database workload bound to a machine.
type DB struct {
	cfg     Config
	m       *kernel.Machine
	stripes []*ipc.YieldMutex
	bufpool *kernel.SerialResource
	wal     *kernel.SerialResource
	clients []*kernel.Proc
	exited  kernel.ExitCursor // over clients, for Done
	// checkpointers run until Done; they are excluded from the
	// completion check, like volano's housekeeping threads.
	checkpointers []*kernel.Proc

	txnLat stats.Dist
}

// New constructs the server on m: the lock stripes, the serialized buffer
// pool and WAL, the client connections, and the checkpoint writers.
func New(m *kernel.Machine, cfg Config) *DB {
	cfg = cfg.withDefaults()
	d := &DB{cfg: cfg, m: m}
	d.bufpool = m.NewSerialResource()
	d.wal = m.NewSerialResource()
	for i := 0; i < lockStripes; i++ {
		d.stripes = append(d.stripes, ipc.NewYieldMutex(lockTry))
	}
	mm := m.NewMM("postgres")
	for i := 0; i < cfg.Clients; i++ {
		d.clients = append(d.clients, m.Spawn(fmt.Sprintf("db/client%d", i), mm, d.newClient()))
	}
	for i := 0; i < checkpointers; i++ {
		p := m.Spawn(fmt.Sprintf("db/ckpt%d", i), mm, d.newCheckpointer())
		d.checkpointers = append(d.checkpointers, p)
	}
	return d
}

// serialExec is the closure-free effect of a page-read/WAL-style
// syscall: cost cycles of kernel work gated through the resource in Obj
// for Args[0] serialized cycles, like ipc.Queue's serialized socket
// path. The once-only gate rides in Reserved, which lives in the proc's
// own copy of the syscall and so survives Delay retries.
func serialExec(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	if !sc.Reserved {
		sc.Reserved = true
		if wait := sc.Obj.(*kernel.SerialResource).Reserve(now, uint64(sc.Args[0])); wait > 0 {
			return kernel.DelayFor(wait)
		}
	}
	return kernel.Done()
}

// serialCall returns p's syscall action for one call of cost cycles that
// holds res for hold serialized cycles.
func serialCall(p *kernel.Proc, cost uint64, res *kernel.SerialResource, hold uint64) kernel.Action {
	return p.Call(kernel.Syscall{Cost: cost, Exec: serialExec, Obj: res, Args: [3]int64{int64(hold)}})
}

// The fixed bursts, boxed once and shared by every client and
// checkpointer.
var (
	parse kernel.Action = kernel.Compute{Cycles: parseCost}
	apply kernel.Action = kernel.Compute{Cycles: applyCost}
	scan  kernel.Action = kernel.Compute{Cycles: checkpointCPU}
)

// newClient builds one connection worker: a state machine over the
// transaction phases. The per-client RNG fork keeps the run deterministic
// under any scheduler.
func (d *DB) newClient() kernel.Program {
	const (
		phParse = iota
		phLock
		phRead
		phApply
		phCommit
		phUnlock
		phDone
	)
	rng := d.m.RNG().Fork()
	txns := 0
	phase := phParse
	spins := 0
	page := 0
	var gotLock, justTried bool
	var stripe *ipc.YieldMutex
	var txnStart sim.Time
	disk := &kernel.Sleep{}
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		for {
			switch phase {
			case phParse:
				if txns >= d.cfg.TxnsPerClient {
					return kernel.Exit{}
				}
				txnStart = d.m.Now()
				stripe = d.stripes[rng.Intn(len(d.stripes))]
				spins = 0
				page = 0
				phase = phLock
				return parse
			case phLock:
				if gotLock {
					justTried = false
					phase = phRead
					continue
				}
				if justTried {
					// The attempt failed: yield the CPU before the next
					// spin, as a user-space adaptive mutex does.
					justTried = false
					return kernel.Yield{}
				}
				if spins < lockSpins {
					spins++
					justTried = true
					return stripe.TryLock(p, &gotLock)
				}
				// Spins exhausted: suspend until the holder releases.
				gotLock = true
				phase = phRead
				return stripe.LockBlocking(p)
			case phRead:
				if page >= pagesPerTxn {
					phase = phApply
					continue
				}
				page++
				if rng.Float64() < missRate {
					// Buffer-pool miss: the latch was released before
					// the I/O was issued, so only the sleep remains.
					disk.Cycles = rng.Range(diskLatency/2, diskLatency*2)
					return disk
				}
				return serialCall(p, pageRead, d.bufpool, bufSerialHold)
			case phApply:
				phase = phCommit
				return apply
			case phCommit:
				phase = phUnlock
				return serialCall(p, walWrite, d.wal, walSerialHold)
			case phUnlock:
				phase = phDone
				return stripe.Unlock(p)
			default: // phDone: account the commit, next transaction
				gotLock = false
				txns++
				d.txnLat.Observe(uint64(d.m.Now() - txnStart))
				phase = phParse
			}
		}
	})
}

// newCheckpointer builds a background checkpoint writer: sleep, scan dirty
// pages, flush through the WAL, repeat until the benchmark finishes.
func (d *DB) newCheckpointer() kernel.Program {
	rng := d.m.RNG().Fork()
	phase := 0
	sleep := &kernel.Sleep{}
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		if d.Done() {
			return kernel.Exit{}
		}
		switch phase {
		case 0: // sleep between rounds
			phase = 1
			sleep.Cycles = rng.Range(checkpointInterval/2, checkpointInterval*3/2)
			return sleep
		case 1: // scan for dirty pages
			phase = 2
			return scan
		default: // flush through the WAL
			phase = 0
			return serialCall(p, walWrite, d.wal, checkpointWAL)
		}
	})
}

// Done reports whether every client has committed all its transactions.
func (d *DB) Done() bool { return d.exited.AllExited(d.clients) }

// LockSpins totals failed spin attempts across the lock stripes.
func (d *DB) LockSpins() uint64 {
	var n uint64
	for _, s := range d.stripes {
		n += s.Spins()
	}
	return n
}

// LockBlocked totals acquisitions that had to suspend.
func (d *DB) LockBlocked() uint64 {
	var n uint64
	for _, s := range d.stripes {
		n += s.BlockedAcquires()
	}
	return n
}

// WALWaits counts WAL reservations that found the log busy.
func (d *DB) WALWaits() uint64 { return d.wal.Contended() }

// TxnLatency is the commit-latency distribution in cycles, one sample per
// committed transaction: its Count is the commit count.
func (d *DB) TxnLatency() *stats.Dist { return &d.txnLat }
