// Package kbuild simulates the paper's light-load control experiment: a
// full compile of the Linux kernel with "make -j4 bzImage" (Table 2).
//
// The build is a DAG of compilation jobs executed by a fixed pool of make
// worker processes. Each job reads its source (simulated disk I/O),
// compiles (a CPU burst), and writes its object file. A serial tail
// (configure, final link, bzImage compression) mirrors the ~10% serial
// fraction implied by the paper's numbers: 6:41 on UP versus 3:40 on two
// processors is a parallel speedup of 1.82, i.e. an Amdahl serial share
// close to 0.10.
//
// With at most jobs-in-flight runnable tasks, the scheduler is under no
// stress: the experiment demonstrates that ELSC does not regress light
// desktop workloads, and that its uniprocessor search shortcut gives it a
// whisker of an edge (the paper's 6:38.68 vs 6:41.41).
package kbuild

import (
	"fmt"

	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

// Config sizes the simulated kernel build.
type Config struct {
	// Units is the number of compilation units (default 320, scaled so
	// a default run takes minutes of virtual time like the paper's).
	Units int
	// Jobs is make's -j parallelism (paper: 4).
	Jobs int
	// MeanCompile is the average CPU burst per unit in cycles.
	MeanCompile uint64
	// MeanIO is the average simulated disk wait per unit in cycles.
	// The paper primed the page cache with a throwaway build, so the
	// default is small.
	MeanIO uint64
}

// serialFraction is the share of total compile work executed serially at
// the end (link + compress): the paper's Amdahl serial share.
const serialFraction = 0.10

func (c *Config) withDefaults() Config {
	out := *c
	if out.Units == 0 {
		out.Units = 320
	}
	if out.Jobs == 0 {
		out.Jobs = 4
	}
	if out.MeanCompile == 0 {
		out.MeanCompile = 360_000_000 // ~0.9 s at 400 MHz per unit
	}
	if out.MeanIO == 0 {
		out.MeanIO = 2_000_000 // 5 ms: cache-warm reads
	}
	return out
}

// Build is a constructed kernel-compile workload.
type Build struct {
	cfg     Config
	m       *kernel.Machine
	workers []*kernel.Proc
	linker  *kernel.Proc

	queue     []job
	nextJob   int
	compiled  int
	linkReady kernel.WaitQueue
}

type job struct {
	compile uint64
	io      uint64
}

// New constructs the build on m: the job list, the make worker pool, and
// the final serial linker task.
func New(m *kernel.Machine, cfg Config) *Build {
	cfg = cfg.withDefaults()
	b := &Build{cfg: cfg, m: m}
	rng := m.RNG().Fork()

	mm := m.NewMM("make")
	var totalCompile uint64
	for i := 0; i < cfg.Units; i++ {
		// Compile times vary widely across translation units; a 3x
		// spread around the mean is typical of a kernel tree.
		c := rng.Range(cfg.MeanCompile/2, cfg.MeanCompile*2)
		io := rng.Range(cfg.MeanIO/2, cfg.MeanIO*2)
		b.queue = append(b.queue, job{compile: c, io: io})
		totalCompile += c
	}

	for w := 0; w < cfg.Jobs; w++ {
		name := fmt.Sprintf("cc/%d", w)
		b.workers = append(b.workers, m.Spawn(name, mm, b.newWorker()))
	}

	serial := uint64(float64(totalCompile) * serialFraction)
	b.linker = m.Spawn("ld+bzImage", mm, b.newLinker(serial))
	return b
}

// newWorker builds a make job server: grab the next unit, read, compile,
// write, repeat; when the queue is empty, exit.
func (b *Build) newWorker() kernel.Program {
	phase := 0
	var cur job
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		for {
			switch phase {
			case 0: // claim the next unit
				if b.nextJob >= len(b.queue) {
					return kernel.Exit{}
				}
				cur = b.queue[b.nextJob]
				b.nextJob++
				phase = 1
			case 1: // read the source
				phase = 2
				return kernel.Sleep{Cycles: cur.io}
			case 2: // compile
				phase = 3
				return kernel.Compute{Cycles: cur.compile}
			case 3: // write the object, account completion
				phase = 0
				return p.Call(kernel.Syscall{Cost: 30_000, Exec: execWriteObj, Obj: b})
			}
		}
	})
}

// newLinker waits for every unit, then runs the serial link+compress tail.
func (b *Build) newLinker(serial uint64) kernel.Program {
	phase := 0
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		switch phase {
		case 0: // wait for all objects
			phase = 1
			return p.Call(kernel.Syscall{Cost: 5_000, Exec: execWaitObjs, Obj: b})
		case 1:
			phase = 2
			return kernel.Compute{Cycles: serial}
		default:
			return kernel.Exit{}
		}
	})
}

// execWriteObj accounts one finished unit and releases the linker after
// the last; Obj is the build.
func execWriteObj(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	b := sc.Obj.(*Build)
	b.compiled++
	if b.compiled == len(b.queue) {
		p.M.WakeAll(&b.linkReady)
	}
	return kernel.Done()
}

// execWaitObjs blocks the linker until every unit is compiled; Obj is the
// build.
func execWaitObjs(sc *kernel.Syscall, p *kernel.Proc, now sim.Time) kernel.Outcome {
	b := sc.Obj.(*Build)
	if b.compiled < len(b.queue) {
		return kernel.BlockOn(&b.linkReady)
	}
	return kernel.Done()
}

// Done reports whether the build completed.
func (b *Build) Done() bool { return b.linker.Exited() }

// Result is one build measurement.
type Result struct {
	Units   int
	Jobs    int
	Cycles  uint64
	Seconds float64
	// Formatted is the m:ss.cc rendering used by the paper's Table 2.
	Formatted string
}

// Run executes the build to completion and reports the elapsed time.
func (b *Build) Run() Result {
	start := b.m.Now()
	b.m.Run(func() bool { return b.Done() })
	elapsed := uint64(b.m.Now() - start)
	return Result{
		Units:     b.cfg.Units,
		Jobs:      b.cfg.Jobs,
		Cycles:    elapsed,
		Seconds:   float64(elapsed) / float64(b.m.Hz()),
		Formatted: stats.FormatDuration(elapsed, b.m.Hz()),
	}
}
