package vanilla

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"elsc/internal/sched"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// regPolicy is what FuzzRegIndex drives on both sides: the kernel's calls
// into the stock scheduler.
type regPolicy interface {
	AddToRunqueue(t *task.Task)
	DelFromRunqueue(t *task.Task)
	Schedule(cpu int, prev *task.Task) sched.Result
	Runnable() int
	Drain(q int, out []*task.Task) []*task.Task
	NoteRunning(t *task.Task, running bool)
}

// machine is one side of the comparison: a policy over its own clone of
// the task set, with its own epoch.
type machine struct {
	env   *sched.Env
	pol   regPolicy
	fresh func(env *sched.Env) regPolicy
	tasks []*task.Task
	idle  []*task.Task
	cur   []*task.Task // per CPU: the running task, nil when idle
}

// regPair drives Sched (sides[0]) and the list walk (sides[1]) through one
// op stream read from data, as the kernel drives a policy.
type regPair struct {
	ncpu  int
	sides [2]*machine
	mms   []*task.MM
	data  []byte
	ops   []string
}

// next consumes one byte of the stream as a choice in [0, n); an exhausted
// stream reads as zeros.
func (p *regPair) next(n int) int {
	if len(p.data) == 0 {
		return 0
	}
	b := int(p.data[0])
	p.data = p.data[1:]
	return b % n
}

// mask draws a non-zero affinity mask over the machine's CPUs.
func (p *regPair) mask() uint64 { return uint64(1 + p.next(1<<p.ncpu-1)) }

func newRegPair(data []byte) *regPair {
	p := &regPair{data: data, mms: []*task.MM{nil, {ID: 1}, {ID: 2}}}
	p.ncpu = 1 + p.next(4)
	n := 2 + p.next(23)
	fresh := [2]func(env *sched.Env) regPolicy{
		func(env *sched.Env) regPolicy { return New(env) },
		func(env *sched.Env) regPolicy { return newScan(env) },
	}
	for i := range p.sides {
		env := sched.NewEnv(p.ncpu, p.ncpu > 1, func() int { return n })
		m := &machine{env: env, pol: fresh[i](env), fresh: fresh[i], cur: make([]*task.Task, p.ncpu)}
		for cpu := 0; cpu < p.ncpu; cpu++ {
			idle := task.New(-(cpu + 1), "idle", nil, nil)
			idle.IsIdle, idle.Processor = true, cpu
			m.idle = append(m.idle, idle)
		}
		p.sides[i] = m
	}
	for id := 0; id < n; id++ {
		// A narrow priority alphabet half the time, so static
		// goodness values collide and ties reach the ceilings.
		prio := 1 + p.next(task.MaxPriority)
		if p.next(2) == 0 {
			prio = []int{1, 2, 20, 21, 40}[p.next(5)]
		}
		counter := p.next(2*prio + 1)
		policy, rt := p.policy()
		var mask uint64
		if p.next(6) == 0 {
			mask = p.mask()
		}
		mm := p.mms[p.next(len(p.mms))]
		ran, last := p.next(2) == 1, p.next(p.ncpu)
		queued := p.next(4) != 0
		for _, m := range p.sides {
			t := task.New(id, fmt.Sprint("t", id), mm, m.env.Epoch)
			t.Priority, t.Policy, t.RTPriority = prio, policy, rt
			t.CPUsAllowed, t.EverRan, t.Processor = mask, ran, last
			t.SetCounter(m.env.Epoch, counter)
			m.tasks = append(m.tasks, t)
			if queued {
				m.pol.AddToRunqueue(t)
			} else {
				t.State = task.Interruptible
			}
		}
	}
	return p
}

// policy draws a scheduling class, mostly SCHED_OTHER.
func (p *regPair) policy() (task.Policy, int) {
	switch p.next(8) {
	case 0:
		return task.FIFO, []int{0, 50, 99}[p.next(3)]
	case 1:
		return task.RR, []int{0, 50, 99}[p.next(3)]
	}
	return task.Other, 0
}

// schedule runs one schedule() on cpu on both sides the way
// kernel.reschedule does — prev still HasCPU during the call, NoteRunning
// around the flips — and fails on any difference in what it reported.
func (p *regPair) schedule(t *testing.T, cpu int) {
	var res [2]sched.Result
	for i, m := range p.sides {
		prev := m.cur[cpu]
		prevTask := m.idle[cpu]
		if prev != nil {
			prevTask = prev
		}
		res[i] = m.pol.Schedule(cpu, prevTask)
		if prev != nil {
			if prev.OnRunqueue() {
				m.pol.NoteRunning(prev, false)
			}
			prev.HasCPU = false
		}
		m.cur[cpu] = res[i].Next
		if next := res[i].Next; next != nil {
			next.HasCPU, next.Processor, next.EverRan = true, cpu, true
			if next.OnRunqueue() {
				m.pol.NoteRunning(next, true)
			}
		}
	}
	id := func(r sched.Result) int {
		if r.Next == nil {
			return -1
		}
		return r.Next.ID
	}
	a, b := res[0], res[1]
	if id(a) != id(b) || a.Examined != b.Examined || a.Cycles != b.Cycles || a.Recalcs != b.Recalcs {
		p.fail(t, "schedule(%d): index next=%d examined=%d cycles=%d recalcs=%d, walk next=%d examined=%d cycles=%d recalcs=%d",
			cpu, id(a), a.Examined, a.Cycles, a.Recalcs, id(b), b.Examined, b.Cycles, b.Recalcs)
	}
}

// requeue applies change the way kernel.requeue does: a waiting task is
// taken out and re-filed around it, a running one changes in place.
func requeue(m *machine, t *task.Task, change func()) {
	queued := t.OnRunqueue() && !t.HasCPU
	if queued {
		m.pol.DelFromRunqueue(t)
	}
	change()
	if queued {
		m.pol.AddToRunqueue(t)
	}
}

// step applies one op from the stream to both sides.
func (p *regPair) step(t *testing.T) {
	op, cpu, i := p.next(13), p.next(p.ncpu), p.next(len(p.sides[0].tasks))
	p.ops = append(p.ops, fmt.Sprintf("%d/cpu%d/t%d", op, cpu, i))
	switch op {
	case 0, 1, 2: // schedule(), the commonest call
		p.schedule(t, cpu)
	case 3: // sched_yield
		for _, m := range p.sides {
			if c := m.cur[cpu]; c != nil {
				c.Yielded = true
			}
		}
		p.schedule(t, cpu)
	case 4: // the running task blocks
		for _, m := range p.sides {
			if c := m.cur[cpu]; c != nil {
				c.State = task.Interruptible
			}
		}
		p.schedule(t, cpu)
	case 5: // a timer tick; an expired quantum (or RR slice) reschedules
		expired := false
		for _, m := range p.sides {
			if c := m.cur[cpu]; c != nil && c.TickDecrement(m.env.Epoch) == 0 {
				expired = true
			}
		}
		if expired {
			p.schedule(t, cpu)
		}
	case 6, 7: // wake a blocked task, or re-add one taken off the queue
		for _, m := range p.sides {
			if tk := m.tasks[i]; !tk.OnRunqueue() && !tk.HasCPU {
				tk.State = task.Running
				m.pol.AddToRunqueue(tk)
			}
		}
	case 8: // a waiting task leaves the queue
		for _, m := range p.sides {
			if tk := m.tasks[i]; tk.OnRunqueue() && !tk.HasCPU {
				m.pol.DelFromRunqueue(tk)
				tk.State = task.Interruptible
			}
		}
	case 9: // sched_setscheduler, setpriority, sched_setaffinity
		p.change(i)
	case 10: // spend every quantum, so the next schedule() recalculates
		for _, m := range p.sides {
			for _, tk := range m.tasks {
				requeue(m, tk, func() { tk.SetCounter(m.env.Epoch, 0) })
			}
		}
	case 11: // a policy swap to a fresh stock scheduler
		p.swap(t)
	case 12: // hot-unplug: the CPU's running task is re-filed for the others
		for _, m := range p.sides {
			tk := m.cur[cpu]
			if tk == nil {
				continue
			}
			m.cur[cpu] = nil
			if tk.OnRunqueue() {
				m.pol.NoteRunning(tk, false)
			}
			tk.HasCPU = false
			m.pol.DelFromRunqueue(tk)
			m.pol.AddToRunqueue(tk)
		}
	}
	p.check(t)
}

// change applies one kernel-side change to task i: priority, class or mask
// through requeue, or the MM and last CPU that only move the bonuses.
func (p *regPair) change(i int) {
	kind := p.next(4)
	prio := 1 + p.next(task.MaxPriority)
	policy, rt := p.policy()
	var mask uint64
	if p.next(2) == 0 {
		mask = p.mask()
	}
	mm, last := p.mms[p.next(len(p.mms))], p.next(p.ncpu)
	for _, m := range p.sides {
		tk, ep := m.tasks[i], m.env.Epoch
		switch kind {
		case 0:
			requeue(m, tk, func() {
				tk.Priority = prio
				if c := tk.Counter(ep); c > tk.MaxCounter() {
					tk.SetCounter(ep, tk.MaxCounter())
				}
			})
		case 1:
			requeue(m, tk, func() { tk.Policy, tk.RTPriority = policy, rt })
		case 2:
			requeue(m, tk, func() { tk.CPUsAllowed = mask })
		case 3:
			if !tk.HasCPU {
				tk.MM, tk.Processor = mm, last
			}
		}
	}
}

// swap hands both queues to fresh schedulers as Machine.SwitchPolicy does:
// running tasks detached, the queue drained (the two drains must agree on
// the order), everything imported, running tasks handed back.
func (p *regPair) swap(t *testing.T) {
	var order [2][]int
	for i, m := range p.sides {
		var running []*task.Task
		for _, c := range m.cur {
			if c != nil {
				running = append(running, c)
				m.pol.DelFromRunqueue(c)
			}
		}
		out := m.pol.Drain(0, nil)
		if m.pol.Runnable() != 0 {
			p.fail(t, "side %d: %d runnable after the drain", i, m.pol.Runnable())
		}
		m.pol = m.fresh(m.env)
		for _, tk := range out {
			order[i] = append(order[i], tk.ID)
			m.pol.AddToRunqueue(tk)
		}
		for _, tk := range running {
			m.pol.AddToRunqueue(tk)
		}
	}
	if !slices.Equal(order[0], order[1]) {
		p.fail(t, "drain order: index %v, walk %v", order[0], order[1])
	}
}

// check fails on any difference in the state the two sides leave on their
// tasks: counters as stored (so a sync the walk would not have done shows),
// yield bits, queue membership.
func (p *regPair) check(t *testing.T) {
	a, b := p.sides[0], p.sides[1]
	if a.env.Epoch.N() != b.env.Epoch.N() || a.pol.Runnable() != b.pol.Runnable() {
		p.fail(t, "epoch %d vs %d, runnable %d vs %d", a.env.Epoch.N(), b.env.Epoch.N(), a.pol.Runnable(), b.pol.Runnable())
	}
	for i, x := range a.tasks {
		y := b.tasks[i]
		if x.RawCounter() != y.RawCounter() || x.Yielded != y.Yielded || x.OnRunqueue() != y.OnRunqueue() || x.HasCPU != y.HasCPU {
			p.fail(t, "task %d: index counter=%d yielded=%v queued=%v running=%v, walk counter=%d yielded=%v queued=%v running=%v",
				i, x.RawCounter(), x.Yielded, x.OnRunqueue(), x.HasCPU, y.RawCounter(), y.Yielded, y.OnRunqueue(), y.HasCPU)
		}
	}
}

// fail reports the difference after the last ops of the stream; the input
// itself is the full reproduction.
func (p *regPair) fail(t *testing.T, format string, args ...any) {
	t.Helper()
	ops := p.ops[max(0, len(p.ops)-24):]
	t.Fatalf("op %d, after [... %s] (op/cpu/task): %s", len(p.ops), strings.Join(ops, " "), fmt.Sprintf(format, args...))
}

// FuzzRegIndex holds Sched to the list walk it replaces (scanSched): one
// op stream — schedule, yield, block, tick, wake, dequeue, in-place and
// re-filed priority, class and mask changes, forced recalculation, policy
// swap with its drain, hot-unplug — drives both on cloned task sets, and
// after every op the decisions, Examined, Cycles, recalculations, drain
// order, stored counters and yield bits must be equal. Plain `go test`
// runs the committed corpus plus 300 generated streams.
func FuzzRegIndex(f *testing.F) {
	rng := sim.NewRNG(1)
	for i := 0; i < 300; i++ {
		seed := make([]byte, 64+rng.Intn(960))
		for j := range seed {
			seed[j] = byte(rng.Intn(256))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newRegPair(data)
		p.check(t)
		for len(p.data) > 0 {
			p.step(t)
		}
	})
}
