package sched

import (
	"fmt"
	"testing"

	"elsc/internal/klist"
	"elsc/internal/task"
)

func queued(env *Env, id int) *task.Task { return mkTask(id, 20, 10, env.Epoch) }

// TestLevelArrayAtBothSizes runs the array at cfs's 100 levels and o1's
// 140: the bitmap must follow list occupancy across word boundaries and at
// the top level, Pick must honour level then FIFO order and skip what the
// CPU may not run, and Drain must leave nothing behind.
func TestLevelArrayAtBothSizes(t *testing.T) {
	for _, levels := range []int{100, 140} {
		t.Run(fmt.Sprint(levels), func(t *testing.T) {
			env := NewEnv(2, true, nil)
			var a LevelArray
			a.Init(&env.Tasks, make([]klist.Head, levels-RTLevels))
			top := levels - 1
			if a.Next(0) != -1 || a.Next(top) != -1 || a.Next(levels) != -1 {
				t.Fatal("empty array must report no level")
			}
			low, mid, mid2, pinned := queued(env, 1), queued(env, 2), queued(env, 3), queued(env, 4)
			pinned.CPUsAllowed = 1 << 1
			a.Push(low, top, true)
			a.Push(mid, 64, false)
			a.Push(mid2, 64, false)
			a.Push(pinned, 5, true)
			if a.Len() != 4 {
				t.Fatalf("Len = %d, want 4", a.Len())
			}
			for _, c := range []struct{ from, want int }{
				{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, top}, {top, top}, {levels, -1},
			} {
				if got := a.Next(c.from); got != c.want {
					t.Fatalf("Next(%d) = %d, want %d", c.from, got, c.want)
				}
			}
			// CPU 0 may not run the level-5 task: two levels visited, two
			// tasks touched, and the pick is the FIFO head of level 64.
			var res Result
			if got := a.Pick(env, 0, &res); got != mid {
				t.Fatalf("Pick(cpu 0) = %v, want %v", got, mid)
			}
			if want := 2*env.Cost.BitmapOp + 2*env.Cost.Touch(2); res.Examined != 2 || res.Cycles != want {
				t.Fatalf("Pick charged %d examined / %d cycles, want 2 / %d", res.Examined, res.Cycles, want)
			}
			if got := a.Pick(env, 1, &Result{}); got != pinned {
				t.Fatalf("Pick(cpu 1) = %v, want the pinned task", got)
			}
			a.Remove(mid, 64)
			if a.Next(6) != 64 {
				t.Fatal("level 64 still holds a task: its bit must stay set")
			}
			a.Remove(mid2, 64)
			if a.Next(6) != top {
				t.Fatalf("Next(6) = %d after level 64 emptied, want %d", a.Next(6), top)
			}
			a.Push(mid, 64, true)
			out := a.Drain(nil)
			if len(out) != 3 || out[0] != pinned || out[1] != mid || out[2] != low {
				t.Fatalf("Drain = %v, want ascending level order", out)
			}
			if a.Len() != 0 || a.Next(0) != -1 || pinned.OnRunqueue() || mid.OnRunqueue() || low.OnRunqueue() {
				t.Fatal("Drain must empty the array and unlink every task")
			}
		})
	}
}

// twinArrays drives the on-demand array and its oracle — the array as it
// was when Init built every list, real-time levels included — through one
// script. A task can wait on one list only, so each side has its own task
// set and the two are compared by ID.
type twinArrays struct {
	t           *testing.T
	env         *Env
	levels      int
	lazy, eager LevelArray
	lt, et      map[int]*task.Task
}

func newTwinArrays(t *testing.T, otherLevels int) *twinArrays {
	w := &twinArrays{t: t, env: NewEnv(2, true, nil), levels: RTLevels + otherLevels,
		lt: map[int]*task.Task{}, et: map[int]*task.Task{}}
	w.lazy.Init(&w.env.Tasks, make([]klist.Head, otherLevels))
	w.eager.Init(&w.env.Tasks, make([]klist.Head, otherLevels))
	w.eager.rt = make([]klist.Head, RTLevels)
	return w
}

// each runs op on both sides with the side's copy of task id.
func (w *twinArrays) each(id int, op func(a *LevelArray, t *task.Task)) {
	for _, side := range []struct {
		a     *LevelArray
		tasks map[int]*task.Task
	}{{&w.lazy, w.lt}, {&w.eager, w.et}} {
		if side.tasks[id] == nil {
			side.tasks[id] = queued(w.env, id)
		}
		op(side.a, side.tasks[id])
	}
	w.same()
}

func (w *twinArrays) push(id, lvl int, front bool) {
	w.each(id, func(a *LevelArray, t *task.Task) { a.Push(t, lvl, front) })
}

func (w *twinArrays) remove(id, lvl int) {
	w.each(id, func(a *LevelArray, t *task.Task) { a.Remove(t, lvl) })
}

func idOf(t *task.Task) int {
	if t == nil {
		return 0
	}
	return t.ID
}

// same holds the two sides equal in everything a policy can see: count,
// Next from every level, and Pick's task and charges for both CPUs.
func (w *twinArrays) same() {
	w.t.Helper()
	if w.lazy.Len() != w.eager.Len() {
		w.t.Fatalf("Len = %d, oracle %d", w.lazy.Len(), w.eager.Len())
	}
	for from := 0; from <= w.levels; from++ {
		if got, want := w.lazy.Next(from), w.eager.Next(from); got != want {
			w.t.Fatalf("Next(%d) = %d, oracle %d", from, got, want)
		}
	}
	for cpu := 0; cpu < 2; cpu++ {
		var lr, er Result
		got, want := w.lazy.Pick(w.env, cpu, &lr), w.eager.Pick(w.env, cpu, &er)
		if idOf(got) != idOf(want) || lr != er {
			w.t.Fatalf("Pick(cpu %d) = task %d charged %+v, oracle task %d charged %+v", cpu, idOf(got), lr, idOf(want), er)
		}
	}
}

// TestLevelArrayRealTimeOnDemand is the path no registry cell reaches:
// real-time tasks arriving after SCHED_OTHER traffic, at cfs's size (no
// SCHED_OTHER levels) and o1's (40). The array must behave exactly as the
// one that owned all its lists from Init, and build its real-time levels
// on the first push below RTLevels — not before.
func TestLevelArrayRealTimeOnDemand(t *testing.T) {
	for _, otherLevels := range []int{0, task.MaxPriority} {
		t.Run(fmt.Sprint(RTLevels+otherLevels), func(t *testing.T) {
			w := newTwinArrays(t, otherLevels)
			w.same()
			if otherLevels > 0 {
				top := w.levels - 1
				w.push(1, RTLevels, false)
				w.push(2, top, true)
				w.push(3, RTLevels+20, false)
				w.remove(1, RTLevels)
				w.push(1, RTLevels+20, true)
				if w.lazy.rt != nil {
					t.Fatal("SCHED_OTHER traffic built the real-time levels")
				}
			}
			// rt_priority 0 (the worst real-time level) first, then 99
			// (level 0), then two at one level, one of them pinned away
			// from CPU 0.
			w.push(10, RTLevels-1, false)
			if w.lazy.rt == nil {
				t.Fatal("a real-time push must build the real-time levels")
			}
			w.push(11, 0, false)
			w.push(12, 50, false)
			w.push(13, 50, false)
			w.each(12, func(_ *LevelArray, tk *task.Task) { tk.CPUsAllowed = 1 << 1 })
			if got := w.lazy.Pick(w.env, 0, &Result{}); idOf(got) != 11 {
				t.Fatalf("Pick = task %d, want the rt_priority 99 task", idOf(got))
			}
			w.remove(11, 0)
			if got := w.lazy.Pick(w.env, 0, &Result{}); idOf(got) != 13 {
				t.Fatalf("Pick = task %d, want the unpinned level-50 task", idOf(got))
			}
			// A round-robin rotation (tail) and a class-change re-file
			// (head) of a queued real-time task.
			w.remove(12, 50)
			w.push(12, 50, false)
			w.remove(13, 50)
			w.push(13, 50, true)
			if got := w.lazy.Pick(w.env, 0, &Result{}); idOf(got) != 13 {
				t.Fatalf("Pick = task %d, want the re-filed head of level 50", idOf(got))
			}
			w.remove(12, 50)
			w.push(11, 0, true)

			lazy, eager := w.lazy.Drain(nil), w.eager.Drain(nil)
			var got, want []int
			for i := range eager {
				got, want = append(got, idOf(lazy[i])), append(want, idOf(eager[i]))
			}
			wantIDs := []int{11, 13, 10}
			if otherLevels > 0 {
				wantIDs = append(wantIDs, 1, 3, 2)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(want) != fmt.Sprint(wantIDs) {
				t.Fatalf("Drain = %v, oracle %v, want %v", got, want, wantIDs)
			}
			w.same()
		})
	}
}

// TestLevelArrayRealTimeAllocatesOnce: the first real-time push costs an
// array exactly one allocation — its hundred lists in one slice — and
// nothing after it allocates again, real-time or not.
func TestLevelArrayRealTimeAllocatesOnce(t *testing.T) {
	// One measured call, so the average is the count (AllocsPerRun
	// truncates); it warms up with one extra call, on its own array.
	const runs = 1
	env := NewEnv(1, false, nil)
	arrays := make([]LevelArray, runs+1)
	tasks := make([]*task.Task, len(arrays))
	for i := range arrays {
		arrays[i].Init(&env.Tasks, make([]klist.Head, task.MaxPriority))
		tasks[i] = queued(env, i+1)
		// A first filing numbers the task in the Env's table; do that
		// here (Link), so the measured push allocates for the array alone.
		env.Tasks.Link(tasks[i])
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		arrays[i].Push(tasks[i], RTLevels-1, false)
		i++
	}); allocs != 1 {
		t.Fatalf("first real-time push allocates %.1f objects, want exactly 1", allocs)
	}
	a, rt, other := &arrays[0], tasks[0], queued(env, 100)
	a.Push(other, RTLevels+3, false)
	if allocs := testing.AllocsPerRun(100, func() {
		a.Remove(rt, RTLevels-1)
		a.Push(rt, 0, true)
		a.Remove(other, RTLevels+3)
		a.Push(other, RTLevels+3, true)
		if a.Pick(env, 0, &Result{}) != rt {
			t.Fatal("Pick lost the real-time task")
		}
		a.Remove(rt, 0)
		a.Push(rt, RTLevels-1, false)
	}); allocs != 0 {
		t.Fatalf("a built array allocates %.1f objects per round of pushes and removes, want 0", allocs)
	}
}

// fakeQueues is the policy half of a Balancer under test: plain FIFO
// slices, a candidate hook that takes the first task the thief may run at
// scanCost cycles per task looked at, and a refile hook at moveCost.
type fakeQueues struct {
	bal      Balancer
	q        [][]*task.Task
	asked    []int // victims the candidate hook was called for, in order
	hookCost uint64
	examined int
	requeued []*task.Task
}

const (
	scanCost = 7
	moveCost = 11
)

func newFakeQueues(ncpu int, topo *Topology) *fakeQueues {
	f := &fakeQueues{q: make([][]*task.Task, ncpu)}
	env := NewEnv(ncpu, true, nil)
	env.Requeued = func(t *task.Task) { f.requeued = append(f.requeued, t) }
	f.bal = NewBalancer(env, topo, f.candidate, f.refile)
	return f
}

func (f *fakeQueues) add(cpu int, pinned bool) *task.Task {
	t := queued(f.bal.env, 100*cpu+len(f.q[cpu]))
	if pinned {
		t.CPUsAllowed = 1 << uint(cpu)
	}
	t.QIndex = cpu
	f.q[cpu] = append(f.q[cpu], t)
	f.bal.Len[cpu]++
	return t
}

func (f *fakeQueues) candidate(victim, cpu int) (res Result) {
	f.asked = append(f.asked, victim)
	for _, t := range f.q[victim] {
		res.Examined++
		res.Cycles += scanCost
		if CanSchedule(t, cpu) {
			res.Next = t
			break
		}
	}
	f.examined += res.Examined
	f.hookCost += res.Cycles
	return res
}

func (f *fakeQueues) refile(t *task.Task, cpu int) uint64 {
	from := t.QIndex
	for i, q := range f.q[from] {
		if q == t {
			f.q[from] = append(f.q[from][:i], f.q[from][i+1:]...)
		}
	}
	f.bal.Len[from]--
	t.QIndex = cpu
	f.q[cpu] = append(f.q[cpu], t)
	f.bal.Len[cpu]++
	f.hookCost += moveCost
	return moveCost
}

// balancerTopos are the two machines every balancer case runs on. The
// thief is CPU 0; CPUs 3 and 5 share its domain on the NUMA machine, CPUs
// 8 and 20 do not.
var balancerTopos = []struct {
	name string
	topo *Topology
	numa bool
}{
	{"flat", FlatTopology(32), false},
	{"32cpu/4dom", UniformTopology(32, 4), true},
}

// load is one queue's contents at the start of a case.
type load struct{ cpu, n, pinned int }

// outcome is what one balancing operation must do: the victims asked in
// order, the tasks that ended up the thief's, the victim locks charged and
// the thief's counters.
type outcome struct {
	asked        []int
	moved, locks int
	intra, cross uint64
}

func (f *fakeQueues) check(t *testing.T, res Result, got int, want outcome) {
	t.Helper()
	if fmt.Sprint(f.asked) != fmt.Sprint(want.asked) {
		t.Errorf("victims asked %v, want %v", f.asked, want.asked)
	}
	if got != want.moved {
		t.Errorf("took %d tasks, want %d", got, want.moved)
	}
	lock := f.bal.env.Cost.LockOp
	if locks := (res.Cycles - f.hookCost) / lock; int(locks) != want.locks || (res.Cycles-f.hookCost)%lock != 0 {
		t.Errorf("charged %d cycles beyond the hooks' %d: %d LockOps, want %d",
			res.Cycles-f.hookCost, f.hookCost, locks, want.locks)
	}
	if res.Examined != f.examined {
		t.Errorf("Examined = %d, hooks reported %d", res.Examined, f.examined)
	}
	per := f.bal.PerCPUSteals()
	if per[0] != (CPUSteals{Intra: want.intra, Cross: want.cross}) {
		t.Errorf("thief's counters = %+v, want %d intra / %d cross", per[0], want.intra, want.cross)
	}
	for cpu := 1; cpu < len(per); cpu++ {
		if per[cpu] != (CPUSteals{}) {
			t.Errorf("CPU %d counters = %+v, want zero: it took nothing", cpu, per[cpu])
		}
	}
	if intra, cross := f.bal.DomainSteals(); intra != want.intra || cross != want.cross {
		t.Errorf("DomainSteals = %d/%d, want the per-CPU sum %d/%d", intra, cross, want.intra, want.cross)
	}
}

func TestBalancerSteal(t *testing.T) {
	cases := []struct {
		name       string
		loads      []load
		flat, numa outcome
	}{
		{
			name:  "in-domain victim before a longer cross-domain one",
			loads: []load{{cpu: 3, n: 1}, {cpu: 8, n: 5}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{3}, moved: 1, locks: 1, intra: 1},
		},
		{
			name:  "cross-domain steal refused from a one-task victim",
			loads: []load{{cpu: 8, n: 1}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{},
		},
		{
			name:  "cross-domain steal from a two-task victim",
			loads: []load{{cpu: 8, n: 2}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{8}, moved: 1, locks: 1, cross: 1},
		},
		{
			name:  "a busiest queue of pinned tasks does not end the hunt",
			loads: []load{{cpu: 3, n: 3, pinned: 3}, {cpu: 5, n: 1}},
			flat:  outcome{asked: []int{3, 5}, moved: 1, locks: 2, intra: 1},
			numa:  outcome{asked: []int{3, 5}, moved: 1, locks: 2, intra: 1},
		},
		{
			name:  "the rest of a tier is tried in index order, then the next tier",
			loads: []load{{cpu: 5, n: 2, pinned: 2}, {cpu: 3, n: 1, pinned: 1}, {cpu: 20, n: 2}, {cpu: 8, n: 3, pinned: 3}},
			flat:  outcome{asked: []int{8, 3, 5, 20}, moved: 1, locks: 4, intra: 1},
			numa:  outcome{asked: []int{5, 3, 8, 20}, moved: 1, locks: 4, cross: 1},
		},
		{
			name:  "a lone cross-domain task stays put even when nothing else can be stolen",
			loads: []load{{cpu: 3, n: 2, pinned: 2}, {cpu: 8, n: 1}, {cpu: 20, n: 2, pinned: 2}},
			flat:  outcome{asked: []int{3, 8}, moved: 1, locks: 2, intra: 1},
			numa:  outcome{asked: []int{3, 20}, locks: 2},
		},
	}
	for _, c := range cases {
		for _, m := range balancerTopos {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				f := newFakeQueues(32, m.topo)
				for _, l := range c.loads {
					for i := 0; i < l.n; i++ {
						f.add(l.cpu, i < l.pinned)
					}
				}
				want := c.flat
				if m.numa {
					want = c.numa
				}
				var res Result
				got := 0
				if tk := f.bal.Steal(0, &res); tk != nil {
					got = 1
					// The stolen task is the policy's to move: still queued
					// on its victim, and not yet reported to the kernel.
					if last := want.asked[len(want.asked)-1]; tk.QIndex != last || f.bal.Len[last] == 0 {
						t.Errorf("stolen task filed on %d, want left on victim %d", tk.QIndex, last)
					}
				}
				if len(f.requeued) != 0 {
					t.Errorf("Steal reported %d requeues; the dispatch is the kernel's to see", len(f.requeued))
				}
				f.check(t, res, got, want)
			})
		}
	}
}

func TestBalancerPull(t *testing.T) {
	cases := []struct {
		name       string
		own        int
		loads      []load
		flat, numa outcome
	}{
		{
			name:  "a gap of one moves nothing",
			own:   1,
			loads: []load{{cpu: 3, n: 2}, {cpu: 8, n: 2}},
		},
		{
			name:  "an in-domain gap of two moves one task",
			own:   1,
			loads: []load{{cpu: 3, n: 3}},
			flat:  outcome{asked: []int{3}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{3}, moved: 1, locks: 1, intra: 1},
		},
		{
			name:  "a cross-domain gap below CrossImbalance moves nothing",
			loads: []load{{cpu: 8, n: 3}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
		},
		{
			name:  "a cross-domain gap of CrossImbalance moves half of it in one batch",
			loads: []load{{cpu: 8, n: 4}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{8, 8}, moved: 2, locks: 1, cross: 2},
		},
		{
			name:  "the batch is capped at CrossBatch",
			loads: []load{{cpu: 8, n: 12}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{8, 8, 8, 8}, moved: 4, locks: 1, cross: 4},
		},
		{
			name:  "the batch stops when the victim has nothing more the puller may run",
			loads: []load{{cpu: 8, n: 8, pinned: 7}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{8, 8}, moved: 1, locks: 1, cross: 1},
		},
		{
			name:  "an in-domain imbalance is settled before a larger cross-domain one",
			loads: []load{{cpu: 3, n: 2}, {cpu: 8, n: 10}},
			flat:  outcome{asked: []int{8}, moved: 1, locks: 1, intra: 1},
			numa:  outcome{asked: []int{3}, moved: 1, locks: 1, intra: 1},
		},
	}
	for _, c := range cases {
		for _, m := range balancerTopos {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				f := newFakeQueues(32, m.topo)
				for _, l := range append([]load{{cpu: 0, n: c.own}}, c.loads...) {
					for i := 0; i < l.n; i++ {
						f.add(l.cpu, i < l.pinned)
					}
				}
				want := c.flat
				if m.numa {
					want = c.numa
				}
				var res Result
				f.bal.pull(0, &res)
				if len(f.requeued) != want.moved {
					t.Errorf("reported %d requeues to the kernel, want one per move (%d)", len(f.requeued), want.moved)
				}
				for _, tk := range f.requeued {
					if tk.QIndex != 0 {
						t.Errorf("requeued task filed on %d, want the puller's queue", tk.QIndex)
					}
				}
				f.check(t, res, f.bal.Len[0]-c.own, want)
			})
		}
	}
}

// TestBalancerTickCadence: the pull runs on every BalanceEvery-th
// schedule() of a CPU, counted per CPU; and a one-CPU machine, which has
// nobody to pull from, is never charged for trying.
func TestBalancerTickCadence(t *testing.T) {
	f := newFakeQueues(4, FlatTopology(4))
	for i := 0; i < 8; i++ {
		f.add(1, false)
	}
	var res Result
	for i := 1; i < BalanceEvery; i++ {
		f.bal.Tick(0, &res)
		f.bal.Tick(2, &res)
	}
	if len(f.asked) != 0 || res.Cycles != 0 {
		t.Fatalf("pull ran %d schedules into the period", BalanceEvery-1)
	}
	f.bal.Tick(0, &res)
	if f.bal.Len[0] != 1 || f.bal.Len[2] != 0 {
		t.Fatalf("after CPU 0's %dth schedule: queues %v, want one task pulled to CPU 0 only", BalanceEvery, f.bal.Len)
	}
	f.bal.Tick(0, &res)
	if f.bal.Len[0] != 1 {
		t.Fatal("the period must restart after a pull")
	}

	up := newFakeQueues(1, nil)
	up.add(0, false)
	res = Result{}
	for i := 0; i < 4*BalanceEvery; i++ {
		up.bal.Tick(0, &res)
	}
	if up.bal.Steal(0, &res) != nil || len(up.asked) != 0 || res.Cycles != 0 {
		t.Fatalf("one-CPU balancer asked %v and charged %d cycles, want nothing", up.asked, res.Cycles)
	}
}

func TestPerCPUStealsReturnsCopy(t *testing.T) {
	f := newFakeQueues(2, nil)
	f.add(1, false)
	if f.bal.Steal(0, &Result{}) == nil {
		t.Fatal("steal failed")
	}
	per := f.bal.PerCPUSteals()
	per[0].Intra = 99
	if got := f.bal.PerCPUSteals()[0].Intra; got != 1 {
		t.Fatalf("mutating the returned slice leaked into the balancer: %d", got)
	}
}
