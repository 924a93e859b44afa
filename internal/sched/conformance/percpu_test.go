package conformance

import (
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sched"
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
			s.ExportRunnable()
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
