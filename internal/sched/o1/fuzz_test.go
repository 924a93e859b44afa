package o1

import (
	"fmt"
	"testing"

	"elsc/internal/sched"
	"elsc/internal/task"
)

// The priority-array property test: random sequences of kernel-shaped
// operations — enqueue, dequeue, schedule (which expires, swaps, and
// steals), move-first/move-last, bonus credit/drain, counter edits, tick
// rotation, scheduling-class changes (which bring the arrays' on-demand
// real-time levels into being) — must keep the FFS bitmap exactly
// consistent with list occupancy and never lose or duplicate a task. Every
// byte pair of the fuzz input drives one operation, and the full invariant
// is checked after each, so a shrunk counterexample points at the first
// corrupting op rather than a downstream symptom.

const (
	fuzzCPUs  = 2
	fuzzTasks = 6
)

// fuzzRig is a kernel-faithful harness around one Sched: it tracks which
// task each CPU runs and performs the HasCPU flips exactly as
// kernel.reschedule does.
type fuzzRig struct {
	env     *sched.Env
	s       *Sched
	tasks   []*task.Task
	idles   []*task.Task
	current []*task.Task
}

func newFuzzRig() *fuzzRig {
	env := sched.NewEnv(fuzzCPUs, true, func() int { return fuzzTasks })
	r := &fuzzRig{
		env:     env,
		s:       New(env),
		current: make([]*task.Task, fuzzCPUs),
	}
	for i := 0; i < fuzzTasks; i++ {
		tk := task.New(i+1, fmt.Sprintf("f%d", i), nil, env.Epoch)
		tk.Priority = 1 + (i*7)%task.MaxPriority
		tk.SetCounter(env.Epoch, 1+i%8)
		r.tasks = append(r.tasks, tk)
	}
	for i := 0; i < fuzzCPUs; i++ {
		idle := task.New(-(i + 1), fmt.Sprintf("idle/%d", i), nil, nil)
		idle.IsIdle = true
		idle.Processor = i
		r.idles = append(r.idles, idle)
	}
	return r
}

// clockStride is how far each rig schedule() moves its queue's starvation
// clock: Schedule's own tick plus a poke, so the guard fires after eight
// schedules — within reach of a short fuzz input — exactly where a limit
// of 8 would.
const clockStride = starvationLimit / 8

// schedule mirrors kernel.reschedule's calling convention.
func (r *fuzzRig) schedule(cpu int) {
	prev := r.current[cpu]
	prevTask := r.idles[cpu]
	if prev != nil {
		prevTask = prev
	}
	r.current[cpu] = nil
	r.s.rqs[cpu].schedSeq += clockStride - 1
	res := r.s.Schedule(cpu, prevTask)
	if prev != nil {
		prev.HasCPU = false
	}
	if next := res.Next; next != nil {
		next.HasCPU = true
		next.Processor = cpu
		next.EverRan = true
		r.current[cpu] = next
	}
}

// step applies one fuzz operation.
func (r *fuzzRig) step(op, arg byte) {
	tk := r.tasks[int(arg)%len(r.tasks)]
	cpu := int(arg) % fuzzCPUs
	max := r.env.Cost.MaxSleepAvg
	switch op % 12 {
	case 0:
		tk.State = task.Running
		if !tk.HasCPU {
			r.s.AddToRunqueue(tk)
		}
	case 1:
		r.s.DelFromRunqueue(tk)
	case 2:
		r.schedule(cpu)
	case 3: // current blocks, then the CPU re-schedules (dequeue path)
		if cur := r.current[cpu]; cur != nil {
			cur.State = task.Interruptible
		}
		r.schedule(cpu)
	case 4: // current yields
		if cur := r.current[cpu]; cur != nil {
			cur.Yielded = true
		}
		r.schedule(cpu)
	case 5:
		tk.CreditSleep(uint64(arg)*max/255, max)
	case 6:
		tk.DrainRun(uint64(arg) * max / 64)
	case 7:
		tk.SetCounter(r.env.Epoch, int(arg)%tk.MaxCounter())
	case 8: // the kernel's re-file of a queued task: Del, Add
		if tk.OnRunqueue() {
			r.s.DelFromRunqueue(tk)
			r.s.AddToRunqueue(tk)
		}
	case 9: // tick: granularity rotation / better-level preemption
		if cur := r.current[cpu]; cur != nil {
			if preempt, _ := r.s.TickPreempt(cpu, cur); preempt {
				r.schedule(cpu)
			}
		}
	case 10: // SD_WAKE_IDLE placement hint
		tk.State = task.Running
		if !tk.HasCPU {
			r.s.PlaceWake(tk, cpu)
		}
	case 11: // sched_setscheduler: arg picks class and rt_priority (99 -> 99, 100 -> 0)
		requeue := tk.OnRunqueue()
		r.s.DelFromRunqueue(tk)
		tk.Policy = []task.Policy{task.Other, task.FIFO, task.RR}[int(arg)/fuzzTasks%3]
		tk.RTPriority = 0
		if tk.RealTime() {
			tk.RTPriority = int(arg) % (task.MaxRTPriority + 1)
		}
		if requeue {
			r.s.AddToRunqueue(tk)
		}
	}
}

// checkInvariants walks every list of every array on every queue and
// cross-checks bitmap bits, per-array counts, task stamps, Runnable, and
// global no-loss/no-duplication against the harness's running set.
func (r *fuzzRig) checkInvariants() error {
	queued := make(map[*task.Task]int)
	total := 0
	for q := range r.s.rqs {
		rq := &r.s.rqs[q]
		qTotal := 0
		for ai := 0; ai < 2; ai++ {
			arr := &rq.arrays[ai]
			arrTotal := 0
			// Only populated levels are walked — a real-time level may not
			// exist yet. A task on a list whose bit is clear still shows:
			// the array's count and its own OnRunqueue disagree with the walk.
			for lvl := arr.Next(0); lvl >= 0; lvl = arr.Next(lvl + 1) {
				n := 0
				var walkErr error
				for tk := arr.First(lvl); tk != nil && n <= fuzzTasks; tk = r.s.env.Tasks.Next(tk) {
					// The walk is bounded: a longer list is a cycle.
					queued[tk]++
					sa, sl := unstamp(tk.QStamp)
					if tk.QIndex != q || sa != ai || sl != lvl {
						walkErr = fmt.Errorf("task %v stamped q%d/a%d/l%d but found on q%d/a%d/l%d",
							tk, tk.QIndex, sa, sl, q, ai, lvl)
					}
					if tk.RealTime() != (lvl < rtLevels) {
						walkErr = fmt.Errorf("task %v (real-time %v) on q%d/a%d level %d", tk, tk.RealTime(), q, ai, lvl)
					}
					n++
				}
				if walkErr != nil {
					return walkErr
				}
				if n > fuzzTasks {
					return fmt.Errorf("q%d array %d level %d list has a cycle", q, ai, lvl)
				}
				if n == 0 {
					return fmt.Errorf("q%d array %d level %d: bit set over an empty list", q, ai, lvl)
				}
				arrTotal += n
			}
			if arrTotal != arr.Len() {
				return fmt.Errorf("q%d array %d count=%d but lists hold %d", q, ai, arr.Len(), arrTotal)
			}
			qTotal += arrTotal
			total += arrTotal
		}
		if got := r.s.bal.Len[q]; got != qTotal {
			return fmt.Errorf("q%d: balancer length %d but arrays hold %d", q, got, qTotal)
		}
	}
	if got := r.s.Runnable(); got != total {
		return fmt.Errorf("Runnable()=%d but arrays hold %d", got, total)
	}
	for _, tk := range r.tasks {
		n := queued[tk]
		if n > 1 {
			return fmt.Errorf("task %v on %d lists", tk, n)
		}
		if (n == 1) != tk.OnRunqueue() {
			return fmt.Errorf("task %v: on %d lists but OnRunqueue=%v", tk, n, tk.OnRunqueue())
		}
		if n == 1 && tk.HasCPU {
			return fmt.Errorf("task %v both queued and running", tk)
		}
	}
	for tk, n := range queued {
		if n > 0 && tk.IsIdle {
			return fmt.Errorf("idle task %v on a run queue", tk)
		}
	}
	return nil
}

// runOps replays a fuzz input: one (op, arg) pair per two bytes, full
// invariant check after every operation.
func runOps(data []byte) error {
	r := newFuzzRig()
	for i := 0; i+1 < len(data); i += 2 {
		r.step(data[i], data[i+1])
		if err := r.checkInvariants(); err != nil {
			return fmt.Errorf("op %d (%d,%d): %w", i/2, data[i], data[i+1], err)
		}
	}
	return nil
}

// Real-time arrivals against the arrays' on-demand real-time levels, at
// rt_priority 99 (arg 99: task 3, level 0) and 0 (arg 100: task 4, level
// 99). rtFirst files them into fresh arrays before any SCHED_OTHER task,
// moves them within their levels, runs them, has one yield and one block,
// and turns one back into a SCHED_OTHER task while it runs. rtLast brings
// them in after SCHED_OTHER traffic has expired, yielded and swapped CPU
// 0's arrays, so the real-time levels that get built there are the second
// array's only; it then moves, runs and dequeues them and re-classes one.
var (
	rtFirst = []byte{11, 99, 11, 100, 0, 3, 0, 4, 0, 0, 0, 1, 8, 3, 8, 4, 2, 0, 2, 1, 4, 0, 3, 1, 11, 3, 2, 0, 2, 1}
	rtLast  = []byte{0, 0, 0, 1, 0, 2, 7, 0, 2, 0, 4, 0, 2, 0, 2, 1, 11, 99, 0, 3, 11, 100, 0, 4, 8, 4, 8, 3, 1, 3, 0, 3, 2, 0, 4, 0, 2, 1, 11, 3, 2, 1}
)

func FuzzPrioArrays(f *testing.F) {
	// Seed corpus: each seed exercises a distinct hazardous path —
	// expiry into the expired array, array swap, yield-to-expired,
	// interactive requeue after bonus credit, steal across queues,
	// move-first/move-last on both arrays, placement hints, and real-time
	// tasks arriving first and last.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0, 2, 1})             // add, add, run, block, run elsewhere
	f.Add([]byte{0, 0, 7, 0, 2, 0, 4, 0, 2, 0})             // expire counter, yield into expired, swap
	f.Add([]byte{0, 0, 5, 255, 7, 0, 0, 1, 2, 0, 9, 0})     // interactive credit + spent quantum + tick
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 2, 1, 8, 1}) // populate both queues, steal, move-last
	f.Add([]byte{10, 1, 10, 3, 2, 1, 6, 255, 2, 0})         // wake-idle placement, drain, reschedule
	f.Add(rtFirst)
	f.Add(rtLast)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // long inputs add time, not coverage: every op is O(1)
		}
		if err := runOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPrioArrayOpSequenceRegression replays the checked-in shrunk
// sequences deterministically on every plain `go test` run, so the
// invariants are exercised even where the fuzz engine is not: quantum
// expiry into expired while the other queue steals, a forced swap under
// the starvation guard, rotation markers surviving a dequeue, and
// placement hints racing ordinary adds.
func TestPrioArrayOpSequenceRegression(t *testing.T) {
	sequences := [][]byte{
		// All six tasks in, every CPU scheduling, counters expiring.
		{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 0, 2, 1, 7, 0, 7, 1, 2, 0, 3, 1, 2, 0, 2, 1},
		// Interactive credit, spent quantum, tick rotation, yield.
		{0, 0, 5, 255, 7, 0, 2, 0, 9, 0, 4, 0, 0, 1, 5, 200, 9, 1, 2, 1, 4, 1},
		// Wake-idle placement onto both queues, then drains and moves.
		{10, 0, 10, 1, 10, 2, 6, 255, 8, 0, 8, 1, 8, 2, 2, 0, 3, 0, 2, 1, 3, 1},
		// Del/re-add churn across a swap with the starvation clock hot.
		{0, 0, 7, 0, 0, 1, 7, 1, 2, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0, 0, 1, 1, 0, 1, 2, 1, 2, 1},
		rtFirst,
		rtLast,
	}
	for i, seq := range sequences {
		if err := runOps(seq); err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
	}
}
