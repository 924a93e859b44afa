package conformance

import (
	"fmt"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// TestHomePlacement runs the one placement rule (sched.QueueLens.Home)
// through every per-CPU-queue policy — mq, o1, cfs — by way of
// AddToRunqueue. Processor only ever holds a CPU the kernel dispatched on,
// so it is in [0, NCPU): mq's former `Processor % len(queues)` and o1/cfs's
// `Processor < len(rqs)` were the same predicate, and Home's is theirs.
func TestHomePlacement(t *testing.T) {
	cases := []struct {
		name    string
		lens    [4]int // tasks queued per CPU beforehand
		offline []int
		everRan bool
		last    int
		allowed uint64
		want    int
	}{
		{name: "ran on an allowed online CPU: stays", lens: [4]int{0, 0, 9, 0}, everRan: true, last: 2, want: 2},
		{name: "last CPU offline: least-loaded online", lens: [4]int{3, 1, 0, 2}, offline: []int{2}, everRan: true, last: 2, want: 1},
		{name: "last CPU disallowed: least-loaded allowed", lens: [4]int{0, 5, 0, 4}, everRan: true, last: 2, allowed: 1<<1 | 1<<3, want: 3},
		{name: "tie goes to the lowest index", lens: [4]int{2, 1, 1, 1}, everRan: true, last: 0, allowed: 1<<1 | 1<<2 | 1<<3, want: 1},
		{name: "mask names only offline CPUs: first online", lens: [4]int{0, 7, 0, 0}, offline: []int{0, 2}, everRan: true, last: 2, allowed: 1<<0 | 1<<2, want: 1},
		{name: "mask names no CPU of the machine: first online", lens: [4]int{4, 0, 0, 0}, allowed: 1 << 9, want: 0},
		{name: "never ran: the zero-value Processor is not a home", lens: [4]int{5, 2, 1, 3}, want: 2},
	}
	for _, name := range experiments.Policies {
		env := sched.NewEnv(4, true, func() int { return 32 })
		s := experiments.Factory(name)(env)
		if s.Visibility() != sched.VisibleOwner {
			continue // no per-CPU queues
		}
		for _, c := range cases {
			for cpu, n := range c.lens {
				for i := 0; i < n; i++ {
					filler := mkTask(env, 100*cpu+i, 20, 10)
					filler.EverRan, filler.Processor = true, cpu
					s.AddToRunqueue(filler)
				}
			}
			for _, cpu := range c.offline {
				env.SetCPUOnline(cpu, false)
			}
			tk := mkTask(env, 1, 20, 10)
			tk.EverRan, tk.Processor, tk.CPUsAllowed = c.everRan, c.last, c.allowed
			s.AddToRunqueue(tk)
			if tk.QIndex != c.want {
				t.Errorf("%s, %s: filed on queue %d, want %d", name, c.name, tk.QIndex, c.want)
			}
			drainAll(s, env.NCPU)
			for _, cpu := range c.offline {
				env.SetCPUOnline(cpu, true)
			}
		}
	}
}

// TestBalancerPathsAllocFree guards the shared balancer's host cost on
// every policy that reports its steals (o1, cfs): schedule() on an idle
// CPU of a 32-CPU, 4-domain machine must not allocate on the idle-steal
// path — in-domain victim, then cross-domain victims only — nor on the
// calls where the periodic pull comes due and moves a batch. A hook that
// takes the *sched.Result instead of returning its scan by value sends
// every Schedule's Result to the heap and fails this test; the steady-
// state tests of the policies never reach the balancer.
func TestBalancerPathsAllocFree(t *testing.T) {
	const ncpu, thief, neighbour, foreign = 32, 0, 3, 8
	for _, name := range experiments.Policies {
		env := sched.NewEnv(ncpu, true, func() int { return 16 })
		env.Topo = sched.UniformTopology(ncpu, 4)
		s := experiments.Factory(name)(env)
		sr, ok := s.(sched.StealReporter)
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			idle := mkIdle(thief)
			home := func(id, cpu int) {
				tk := mkTask(env, id, 20, 10)
				tk.EverRan, tk.Processor = true, cpu
				s.AddToRunqueue(tk)
			}
			// Each cycle runs whatever the thief finds and sends it back
			// to the queue of the CPU it last ran on (never the thief's:
			// Processor is not updated), so the imbalance persists. A task
			// the thief ran without a move being counted on that call was
			// already on its queue: an earlier pull's batch.
			var intra, cross, fromBatch uint64
			cycle := func() {
				next := s.Schedule(thief, idle).Next
				if next == nil {
					return
				}
				s.AddToRunqueue(next)
				if i, c := sr.DomainSteals(); i == intra && c == cross {
					fromBatch++
				} else {
					intra, cross = i, c
				}
			}
			phase := func(what string) {
				for i := 0; i < 2*sched.BalanceEvery; i++ {
					cycle() // warm: heap backing arrays grow here
				}
				intra, cross = sr.DomainSteals()
				fromBatch = 0
				if allocs := testing.AllocsPerRun(4*sched.BalanceEvery, cycle); allocs != 0 {
					t.Fatalf("%s: schedule() allocates %.2f objects/op, want 0", what, allocs)
				}
			}

			home(1, neighbour)
			if phase("in-domain steal"); intra == 0 || cross != 0 || fromBatch != 0 {
				t.Fatalf("in-domain phase: %d intra / %d cross moves, %d tasks from pulled batches; want in-domain steals only",
					intra, cross, fromBatch)
			}
			if next := s.Schedule(neighbour, mkIdle(neighbour)).Next; next == nil {
				t.Fatal("the neighbour's task is gone")
			}
			for i := 0; i < 6; i++ {
				home(10+i, foreign)
			}
			// Six tasks a domain away: idle steals one at a time, and
			// every BalanceEvery-th call pulls a batch first.
			in0 := intra
			if phase("cross-domain steal and batch pull"); intra != in0 || cross == 0 || fromBatch == 0 {
				t.Fatalf("cross-domain phase: %d intra / %d cross moves, %d tasks from pulled batches; want cross-domain steals and pulls",
					intra-in0, cross, fromBatch)
			}
		})
	}
}

// levelArrayPolicies are the policies whose per-CPU queues hold real-time
// tasks in a sched.LevelArray: o1 (two arrays per CPU) and cfs (one).
var levelArrayPolicies = []string{experiments.O1, experiments.CFS}

// rtWorld is one policy instance under the real-time script, with its own
// copy of every task (by ID) so two instances can be driven in lockstep.
type rtWorld struct {
	env   *sched.Env
	h     *harness
	tasks map[int]*task.Task
	log   []string
}

// newRTWorld builds a 2-CPU policy and walks both CPUs' queues through two
// array swaps (a spent SCHED_OTHER task parks in o1's expired array, the
// next schedule() swaps it in) so each of o1's arrays has been the active
// one. With eager set, a real-time task is filed and removed at each stop:
// that world's arrays all hold their real-time lists before the script
// starts — the oracle, the arrays as they were when Init built every list.
// Without it the same steps run minus the real-time ones, so the two
// worlds differ in nothing but which lists exist.
func newRTWorld(name string, eager bool) *rtWorld {
	const ncpu = 2
	env := sched.NewEnv(ncpu, true, func() int { return 16 })
	w := &rtWorld{env: env, h: newHarness(experiments.Factory(name)(env), ncpu), tasks: map[int]*task.Task{}}
	s := w.h.s
	for cpu := 0; cpu < ncpu; cpu++ {
		for stop := 0; stop < 2; stop++ {
			if eager {
				rt := task.NewRT(900+cpu, "prime-rt", task.FIFO, 1, env.Epoch)
				rt.EverRan, rt.Processor = true, cpu
				s.AddToRunqueue(rt)
				s.DelFromRunqueue(rt)
			}
			spent := mkTask(env, 910+cpu, 20, 0)
			spent.EverRan, spent.Processor = true, cpu
			s.AddToRunqueue(spent)
			if got := s.Schedule(cpu, w.h.idles[cpu]).Next; got != spent {
				panic(fmt.Sprintf("%s: priming CPU %d ran %v, want the spent task", name, cpu, got))
			}
		}
	}
	return w
}

// other and rt return the world's task id, created on first use homed on
// CPU 0.
func (w *rtWorld) other(id, prio int) *task.Task {
	if w.tasks[id] == nil {
		w.tasks[id] = mkTask(w.env, id, prio, 10)
		w.tasks[id].EverRan = true
	}
	return w.tasks[id]
}

func (w *rtWorld) rt(id int, policy task.Policy, rtprio int) *task.Task {
	if w.tasks[id] == nil {
		w.tasks[id] = task.NewRT(id, fmt.Sprintf("rt%d", id), policy, rtprio, w.env.Epoch)
		w.tasks[id].EverRan = true
	}
	return w.tasks[id]
}

// run schedules cpu and logs the pick with its charges.
func (w *rtWorld) run(cpu int) int {
	id := 0
	if next := w.h.schedule(cpu); next != nil {
		id = next.ID
	}
	w.log = append(w.log, fmt.Sprintf("cpu%d ran %d examined %d cycles %d", cpu, id, w.h.last.Examined, w.h.last.Cycles))
	return id
}

func (w *rtWorld) logIDs(what string, ts []*task.Task) []int {
	ids := make([]int, len(ts))
	for i, tk := range ts {
		ids[i] = tk.ID
	}
	w.log = append(w.log, fmt.Sprintf("%s %v", what, ids))
	return ids
}

// realTimeScript is the traffic no registry cell and no FuzzScenario
// composition produces: real-time tasks arriving on queues that have so
// far carried SCHED_OTHER tasks only. It reports the order CPU 0 ran the
// real-time tasks in and the two drain orders; everything else it did is
// in w.log.
func realTimeScript(w *rtWorld) (ranRT, exported, drained []int) {
	s := w.h.s
	// SCHED_OTHER traffic first: four tasks on CPU 0, one runs there and
	// yields, CPU 1 steals one and keeps it.
	for id := 1; id <= 4; id++ {
		s.AddToRunqueue(w.other(id, 15+5*id))
	}
	w.run(0)
	w.h.current[0].Yielded = true
	w.run(0)
	w.run(1)

	// The real-time tasks arrive: rt_priority 0 and 99 — the two ends of
	// the real-time levels — and two SCHED_RR tasks sharing level 50.
	s.AddToRunqueue(w.rt(10, task.FIFO, task.MinRTPriority))
	s.AddToRunqueue(w.rt(11, task.FIFO, task.MaxRTPriority))
	s.AddToRunqueue(w.rt(12, task.RR, 50))
	s.AddToRunqueue(w.rt(13, task.RR, 50)) // filed at the front: leads 12
	s.DelFromRunqueue(w.tasks[12])         // the kernel's re-file...
	s.AddToRunqueue(w.tasks[12])           // ...12 leads
	for i := 0; i < 4; i++ {
		ranRT = append(ranRT, w.run(0))
		w.h.block(0)
	}
	w.run(0) // back to SCHED_OTHER

	// Drains with real-time tasks queued beside the SCHED_OTHER ones.
	for id := 10; id <= 13; id++ {
		w.tasks[id].State = task.Running
		s.AddToRunqueue(w.tasks[id])
	}
	exported = w.logIDs("export", drainAll(s, w.env.NCPU))
	for _, tk := range w.tasks {
		if tk.OnRunqueue() {
			panic(fmt.Sprintf("task %d still queued after every queue was drained", tk.ID))
		}
	}
	for id := 1; id <= 13; id++ {
		if tk := w.tasks[id]; tk != nil && !tk.HasCPU {
			s.AddToRunqueue(tk)
		}
	}
	drained = w.logIDs("drain cpu0", s.Drain(0, nil))
	for _, id := range drained {
		s.AddToRunqueue(w.tasks[id])
	}

	// Run CPU 0's queue dry of real-time tasks, spend every SCHED_OTHER
	// quantum so o1 parks them in its expired array and swaps, and bring a
	// real-time task in again: it lands in the array that has not held one.
	for i := 0; i < 12; i++ {
		w.run(0)
		cur := w.h.current[0]
		if cur == nil {
			break
		}
		if cur.RealTime() {
			w.h.block(0)
		} else {
			cur.SetCounter(w.env.Epoch, 0)
		}
		if i == 8 {
			w.tasks[11].State = task.Running
			s.AddToRunqueue(w.tasks[11])
		}
	}
	return ranRT, exported, drained
}

// TestRealTimeArrivesAfterTimesharing runs realTimeScript on o1 and cfs
// twice — on arrays that build their real-time levels at the first
// real-time push, and on the oracle whose arrays all held them beforehand
// — and requires the same picks, charges and drain orders from both, in
// the order the real-time classes promise.
func TestRealTimeArrivesAfterTimesharing(t *testing.T) {
	for _, name := range levelArrayPolicies {
		t.Run(name, func(t *testing.T) {
			lazy, eager := newRTWorld(name, false), newRTWorld(name, true)
			ranRT, exported, drained := realTimeScript(lazy)
			realTimeScript(eager)
			if len(lazy.log) != len(eager.log) {
				t.Fatalf("script logged %d steps, oracle %d", len(lazy.log), len(eager.log))
			}
			for i := range lazy.log {
				if lazy.log[i] != eager.log[i] {
					t.Fatalf("step %d: %q, oracle %q", i, lazy.log[i], eager.log[i])
				}
			}
			// rt_priority 99, then level 50 in the order the re-file left
			// it, then rt_priority 0.
			if want := []int{11, 12, 13, 10}; fmt.Sprint(ranRT) != fmt.Sprint(want) {
				t.Errorf("CPU 0 ran real-time tasks %v, want %v", ranRT, want)
			}
			// Both drains hand back real-time tasks first, best level
			// first; re-filed at the front, 13 leads 12 by then.
			for what, ids := range map[string][]int{"drainAll": exported, "Drain(0)": drained} {
				if want := []int{11, 13, 12, 10}; len(ids) < 4 || fmt.Sprint(ids[:4]) != fmt.Sprint(want) {
					t.Errorf("%s = %v, want it to start %v", what, ids, want)
				}
			}
		})
	}
}

// TestRealTimeLevelsAllocateOncePerArray pins what the on-demand real-time
// levels cost the host: a queue's first real-time task allocates exactly
// once (the hundred lists, one slice); o1 pays once more when a real-time
// task first lands in its other array, after a swap; and from then on
// real-time and SCHED_OTHER enqueues, dequeues and schedule() are as
// allocation-free as they were when every list existed from boot.
func TestRealTimeLevelsAllocateOncePerArray(t *testing.T) {
	// One measured call per phase, so AllocsPerRun's truncated average is
	// the exact count.
	const runs = 1
	arrays := map[string]int{experiments.O1: 2, experiments.CFS: 1}
	for _, name := range levelArrayPolicies {
		t.Run(name, func(t *testing.T) {
			// One fresh 1-CPU policy per measured call, plus the call
			// AllocsPerRun warms up with.
			type world struct {
				env       *sched.Env
				s         sched.Scheduler
				rt, spent *task.Task
			}
			worlds := make([]world, runs+1)
			for i := range worlds {
				env := sched.NewEnv(1, false, func() int { return 4 })
				w := world{env, experiments.Factory(name)(env),
					task.NewRT(1, "rt", task.FIFO, 50, env.Epoch), mkTask(env, 2, 20, 0)}
				// A task's first filing numbers it in the Env's table, which
				// grows like any slice; number both here (Link), so what is
				// measured is the real-time levels alone.
				for _, tk := range []*task.Task{w.rt, w.spent} {
					env.Tasks.Link(tk)
				}
				worlds[i] = w
			}
			idle := mkIdle(0)
			i := 0
			first := testing.AllocsPerRun(runs, func() {
				worlds[i].s.AddToRunqueue(worlds[i].rt)
				i++
			})
			if first != 1 {
				t.Fatalf("a queue's first real-time task allocates %.1f objects, want exactly 1", first)
			}
			// Swap: the real-time task leaves, a spent SCHED_OTHER task
			// parks in o1's expired array and the next schedule() makes
			// that array the active one. cfs just runs it.
			for _, w := range worlds {
				w.s.DelFromRunqueue(w.rt)
				w.s.AddToRunqueue(w.spent)
				if got := w.s.Schedule(0, idle).Next; got != w.spent {
					t.Fatalf("ran %v, want the spent task", got)
				}
			}
			i = 0
			second := testing.AllocsPerRun(runs, func() {
				worlds[i].s.AddToRunqueue(worlds[i].rt)
				i++
			})
			if want := float64(arrays[name] - 1); second != want {
				t.Fatalf("the first real-time task after a swap allocates %.1f objects, want %.0f: %s has %d arrays per CPU",
					second, want, name, arrays[name])
			}
			w := worlds[0]
			w.spent.SetCounter(w.env.Epoch, 10)
			w.s.AddToRunqueue(w.spent)
			steady := testing.AllocsPerRun(100, func() {
				for _, want := range []*task.Task{w.rt, w.spent} {
					if got := w.s.Schedule(0, idle).Next; got != want {
						t.Fatalf("ran %v, want %v", got, want)
					}
				}
				w.s.AddToRunqueue(w.spent)
				w.s.AddToRunqueue(w.rt)
				w.s.DelFromRunqueue(w.rt)
				w.s.AddToRunqueue(w.rt)
			})
			if steady != 0 {
				t.Fatalf("with its real-time levels built, a round of enqueues, dequeues and schedule() allocates %.1f objects, want 0", steady)
			}
		})
	}
}
