package sched

import (
	"reflect"
	"testing"
	"testing/quick"

	"elsc/internal/task"
)

func mkTask(id int, prio, counter int, ep *task.Epoch) *task.Task {
	t := task.New(id, "t", nil, ep)
	t.Priority = prio
	t.SetCounter(ep, counter)
	return t
}

// TestSchedulerContract pins the kernel↔policy contract by name: the seven
// methods of Scheduler, the fields of the capability table Ops, and the
// three methods of its Dynamic capability. Growing any of them is a
// deliberate edit here, with a reason in the package doc — "is it queued?"
// in particular is task.OnRunqueue, not a method, and a task's place among
// its equals is decided where it is filed, not by a move_first / move_last
// verb.
func TestSchedulerContract(t *testing.T) {
	for _, c := range []struct {
		typ  any
		want []string // an interface's methods sorted by name, a struct's fields in order
	}{
		{(*Scheduler)(nil), []string{"AddToRunqueue", "DelFromRunqueue", "Drain", "Name", "Runnable",
			"Schedule", "Visibility"}},
		{(*Ops)(nil), []string{"Dynamic", "NoteRunning", "Steals", "Bonus", "Dump"}},
		{(*DynamicPriority)(nil), []string{"PlaceWake", "PreemptsCurr", "TickPreempt"}},
	} {
		typ := reflect.TypeOf(c.typ).Elem()
		var got []string
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				got = append(got, typ.Field(i).Name)
			}
		} else {
			for i := 0; i < typ.NumMethod(); i++ {
				got = append(got, typ.Method(i).Name)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s has %v, want exactly %v", typ.Name(), got, c.want)
		}
	}
}

func TestGoodnessZeroCounter(t *testing.T) {
	ep := &task.Epoch{}
	tk := mkTask(1, 20, 0, ep)
	if g := Goodness(ep, tk, 0, nil); g != 0 {
		t.Fatalf("goodness of exhausted task = %d, want 0", g)
	}
}

func TestGoodnessCounterPlusPriority(t *testing.T) {
	ep := &task.Epoch{}
	tk := mkTask(1, 20, 13, ep)
	if g := Goodness(ep, tk, 0, nil); g != 33 {
		t.Fatalf("goodness = %d, want counter+priority = 33", g)
	}
}

func TestGoodnessMMBonus(t *testing.T) {
	ep := &task.Epoch{}
	mm := &task.MM{ID: 1}
	tk := mkTask(1, 20, 10, ep)
	tk.MM = mm
	base := Goodness(ep, tk, 0, nil)
	with := Goodness(ep, tk, 0, mm)
	if with-base != MMBonus {
		t.Fatalf("mm bonus = %d, want %d", with-base, MMBonus)
	}
}

func TestGoodnessNilMMNoBonus(t *testing.T) {
	// Two kernel threads with nil MM must not get the shared-mm bonus.
	ep := &task.Epoch{}
	tk := mkTask(1, 20, 10, ep)
	if g := Goodness(ep, tk, 0, nil); g != 30 {
		t.Fatalf("goodness = %d, want 30 (no bonus for nil mm)", g)
	}
}

func TestGoodnessAffinityBonus(t *testing.T) {
	ep := &task.Epoch{}
	tk := mkTask(1, 20, 10, ep)
	tk.EverRan = true
	tk.Processor = 2
	onAffine := Goodness(ep, tk, 2, nil)
	onOther := Goodness(ep, tk, 1, nil)
	if onAffine-onOther != AffinityBonus {
		t.Fatalf("affinity bonus = %d, want %d", onAffine-onOther, AffinityBonus)
	}
}

func TestGoodnessNoAffinityBeforeFirstRun(t *testing.T) {
	ep := &task.Epoch{}
	tk := mkTask(1, 20, 10, ep)
	// Processor zero-value is 0; a never-run task must not look affine
	// to CPU 0.
	if g := Goodness(ep, tk, 0, nil); g != 30 {
		t.Fatalf("goodness = %d, want 30 (no affinity before first run)", g)
	}
}

func TestGoodnessRealTime(t *testing.T) {
	ep := &task.Epoch{}
	rt := task.NewRT(1, "rt", task.FIFO, 37, ep)
	if g := Goodness(ep, rt, 0, nil); g != RTBase+37 {
		t.Fatalf("rt goodness = %d, want %d", g, RTBase+37)
	}
}

func TestRTAlwaysBeatsRegular(t *testing.T) {
	// "Real time tasks are always run before regular tasks" — even a
	// zero rt_priority RT task outscores the best possible regular task.
	ep := &task.Epoch{}
	rt := task.NewRT(1, "rt", task.RR, 0, ep)
	best := mkTask(2, task.MaxPriority, 2*task.MaxPriority, ep)
	best.MM = &task.MM{}
	best.EverRan = true
	best.Processor = 0
	if Goodness(ep, rt, 0, best.MM) <= Goodness(ep, best, 0, best.MM) {
		t.Fatal("an RT task must always outscore a SCHED_OTHER task")
	}
}

func TestGoodnessBoundsQuick(t *testing.T) {
	// For SCHED_OTHER: 0 <= goodness <= 2*prio + prio + 16.
	f := func(prio8, counter8 uint8, mmMatch, affine bool) bool {
		prio := int(prio8%task.MaxPriority) + 1
		ep := &task.Epoch{}
		tk := mkTask(1, prio, int(counter8)%(2*prio+1), ep)
		var prevMM *task.MM
		if mmMatch {
			tk.MM = &task.MM{ID: 9}
			prevMM = tk.MM
		}
		if affine {
			tk.EverRan = true
			tk.Processor = 3
		}
		g := Goodness(ep, tk, 3, prevMM)
		if tk.Counter(ep) == 0 {
			return g == 0
		}
		return g >= 1 && g <= 3*prio+AffinityBonus+MMBonus
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGoodnessMonotoneInCounter(t *testing.T) {
	f := func(prio8, c8 uint8) bool {
		prio := int(prio8%task.MaxPriority) + 1
		c := int(c8) % (2 * prio)
		ep := &task.Epoch{}
		a := mkTask(1, prio, c, ep)
		b := mkTask(2, prio, c+1, ep)
		return Goodness(ep, b, 0, nil) > Goodness(ep, a, 0, nil) || c == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	c := DefaultCostModel()
	if c.ScheduleBase == 0 || c.ExamineCost == 0 || c.GoodnessCost == 0 {
		t.Fatal("cost model has zero hot-path costs")
	}
	if c.MMSwitch <= c.ContextSwitch/2 {
		t.Fatal("mm switch should be a significant cost")
	}
}

func TestNewEnv(t *testing.T) {
	env := NewEnv(4, true, nil)
	if env.NCPU != 4 || !env.SMP {
		t.Fatal("env topology wrong")
	}
	if env.Epoch == nil {
		t.Fatal("env must have an epoch")
	}
	if env.NTasks() != 0 {
		t.Fatal("nil ntasks should default to zero")
	}
	env2 := NewEnv(1, false, func() int { return 42 })
	if env2.NTasks() != 42 {
		t.Fatal("ntasks not wired")
	}
}

// goodnessOracle is goodness() as paper §3.3.1 and 2.3.99-pre4 state it,
// one branch per rule, for a task whose (already recalculated) counter is
// counter. It is the reference Goodness is held to; Goodness itself is
// written branch-free for the host's sake (see the package doc).
func goodnessOracle(counter int, t *task.Task, cpu int, prevMM *task.MM) int {
	if t.Policy == task.FIFO || t.Policy == task.RR {
		return RTBase + t.RTPriority
	}
	if counter == 0 {
		return 0
	}
	g := counter + t.Priority
	if t.MM != nil && t.MM == prevMM {
		g += MMBonus
	}
	if t.EverRan && t.Processor == cpu {
		g += AffinityBonus
	}
	return g
}

// recalcOracle applies n global recalculations to counter the way the
// kernel's loop does: counter = counter/2 + priority each time, capped at
// twice the priority.
func recalcOracle(counter, priority, n int) int {
	for i := 0; i < n; i++ {
		counter = counter/2 + priority
	}
	if n > 0 && counter > 2*priority {
		counter = 2 * priority
	}
	return counter
}

// TestGoodnessMatchesOracleExhaustively walks the whole input space of
// Goodness, including tasks whose counter is 1, 3 and 20 recalculations
// behind the epoch (Counter's slow path) and current ones (its inlined
// fast path), and requires the branch-free form to agree with the oracle
// and to leave the task synced.
func TestGoodnessMatchesOracleExhaustively(t *testing.T) {
	const cpu, other = 2, 1
	mmA, mmB := &task.MM{ID: 1}, &task.MM{ID: 2}
	ep := &task.Epoch{}
	tk := task.New(1, "t", nil, ep)
	checked := 0
	for _, stale := range []int{0, 1, 3, 20} {
		for _, pol := range []task.Policy{task.Other, task.FIFO, task.RR} {
			for _, rtprio := range []int{0, 50, 99} {
				for prio := task.MinPriority; prio <= task.MaxPriority; prio++ {
					for counter := 0; counter <= 80; counter++ {
						want := recalcOracle(counter, prio, stale)
						for _, mm := range []*task.MM{nil, mmA, mmB} {
							for _, prevMM := range []*task.MM{nil, mmA} {
								for _, everRan := range []bool{false, true} {
									for _, proc := range []int{cpu, other} {
										tk.Policy, tk.RTPriority, tk.Priority = pol, rtprio, prio
										tk.MM, tk.EverRan, tk.Processor = mm, everRan, proc
										tk.SetCounter(ep, counter)
										for i := 0; i < stale; i++ {
											ep.Bump()
										}
										got := Goodness(ep, tk, cpu, prevMM)
										if exp := goodnessOracle(want, tk, cpu, prevMM); got != exp {
											t.Fatalf("Goodness = %d, oracle %d (stale %d, %v rt %d, prio %d, counter %d→%d, mm %v prev %v, everRan %v proc %d)",
												got, exp, stale, pol, rtprio, prio, counter, want, mm, prevMM, everRan, proc)
										}
										if pol == task.Other && tk.RawCounter() != want {
											t.Fatalf("counter after Goodness = %d, want %d synced (stale %d, prio %d, counter %d)",
												tk.RawCounter(), want, stale, prio, counter)
										}
										if again := Goodness(ep, tk, cpu, prevMM); again != got {
											t.Fatalf("second Goodness = %d, first %d: not idempotent once synced", again, got)
										}
										checked++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if want := 4 * 3 * 3 * 40 * 81 * 3 * 2 * 2 * 2; checked != want {
		t.Fatalf("checked %d combinations, want %d", checked, want)
	}
}

// TestEnvOnlineMaskBounds holds the online mask to its 64 CPUs: NewEnv
// sets one bit per CPU, and a CPU outside [0, 64) reads offline
// and cannot be brought online.
func TestEnvOnlineMaskBounds(t *testing.T) {
	for _, c := range []struct {
		ncpu int
		mask uint64
	}{{1, 1}, {4, 0xf}, {63, 1<<63 - 1}, {64, ^uint64(0)}} {
		if got := NewEnv(c.ncpu, true, nil).OnlineMask(); got != c.mask {
			t.Errorf("NewEnv(%d) online mask %#x, want %#x", c.ncpu, got, c.mask)
		}
	}
	env := NewEnv(64, true, nil)
	for _, cpu := range []int{-1, 64, 100} {
		env.SetCPUOnline(cpu, true)
		if env.CPUOnline(cpu) || env.OnlineCount() != 64 {
			t.Errorf("CPU %d: online %v, %d online, want offline and 64", cpu, env.CPUOnline(cpu), env.OnlineCount())
		}
	}
	env.SetCPUOnline(63, false)
	if env.CPUOnline(63) || !env.CPUOnline(0) || env.OnlineCount() != 63 {
		t.Errorf("after offlining CPU 63: mask %#x", env.OnlineMask())
	}
}
