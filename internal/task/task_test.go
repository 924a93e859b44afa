package task

import (
	"testing"
	"testing/quick"
	"unsafe"

	"elsc/internal/klist"
)

func TestNewDefaults(t *testing.T) {
	ep := &Epoch{}
	tk := New(1, "init", nil, ep)
	if tk.Priority != DefaultPriority {
		t.Fatalf("priority = %d, want %d", tk.Priority, DefaultPriority)
	}
	if tk.Policy != Other {
		t.Fatalf("policy = %v, want SCHED_OTHER", tk.Policy)
	}
	if !tk.Runnable() {
		t.Fatal("new task should be runnable")
	}
	if tk.Counter(ep) != DefaultPriority {
		t.Fatalf("counter = %d, want %d", tk.Counter(ep), DefaultPriority)
	}
	if tk.OnRunqueue() {
		t.Fatal("new task should not be on a run queue")
	}
	if tk.RealTime() {
		t.Fatal("SCHED_OTHER task is not real-time")
	}
}

func TestNewRT(t *testing.T) {
	ep := &Epoch{}
	rt := NewRT(2, "rtthread", FIFO, 50, ep)
	if !rt.RealTime() {
		t.Fatal("FIFO task should be real-time")
	}
	if rt.RTPriority != 50 {
		t.Fatalf("rt_priority = %d, want 50", rt.RTPriority)
	}
}

func TestNewRTRejectsOther(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRT with SCHED_OTHER should panic")
		}
	}()
	NewRT(1, "x", Other, 10, nil)
}

func TestNewRTRejectsBadPriority(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRT with rt_priority 100 should panic")
		}
	}()
	NewRT(1, "x", FIFO, 100, nil)
}

func TestTickDecrement(t *testing.T) {
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.SetCounter(ep, 2)
	if got := tk.TickDecrement(ep); got != 1 {
		t.Fatalf("after 1 tick counter = %d, want 1", got)
	}
	if got := tk.TickDecrement(ep); got != 0 {
		t.Fatalf("after 2 ticks counter = %d, want 0", got)
	}
	// Does not go negative.
	if got := tk.TickDecrement(ep); got != 0 {
		t.Fatalf("counter went below 0: %d", got)
	}
}

func TestSetCounterClampsNegative(t *testing.T) {
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.SetCounter(ep, -5)
	if tk.Counter(ep) != 0 {
		t.Fatalf("counter = %d, want 0", tk.Counter(ep))
	}
}

func TestEpochRecalcFormula(t *testing.T) {
	// One recalculation: counter = counter/2 + priority (2.3.99's loop).
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.Priority = 20
	tk.SetCounter(ep, 10)
	ep.Bump()
	if got := tk.Counter(ep); got != 25 {
		t.Fatalf("counter after recalc = %d, want 10/2+20 = 25", got)
	}
}

func TestEpochZeroCounterBecomesPriority(t *testing.T) {
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.SetCounter(ep, 0)
	ep.Bump()
	if got := tk.Counter(ep); got != tk.Priority {
		t.Fatalf("counter = %d, want priority %d", got, tk.Priority)
	}
}

func TestEpochConvergesToTwicePriority(t *testing.T) {
	// Repeated recalculation converges to the fixed point near
	// 2*priority — the paper's "zero to twice the task's priority" cap.
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.SetCounter(ep, 0)
	for i := 0; i < 50; i++ {
		ep.Bump()
	}
	got := tk.Counter(ep)
	if got != 2*tk.Priority && got != 2*tk.Priority-1 {
		t.Fatalf("converged counter = %d, want %d or %d", got, 2*tk.Priority, 2*tk.Priority-1)
	}
}

func TestManyPendingEpochsMatchNaive(t *testing.T) {
	// Lazy sync over k epochs must equal applying the recurrence k times.
	f := func(start uint8, prio8 uint8, epochs uint8) bool {
		prio := int(prio8%MaxPriority) + 1
		ep := &Epoch{}
		tk := New(1, "t", nil, ep)
		tk.Priority = prio
		c0 := int(start) % (2*prio + 1)
		tk.SetCounter(ep, c0)

		naive := c0
		for i := 0; i < int(epochs); i++ {
			naive = naive/2 + prio
		}
		if naive > 2*prio {
			naive = 2 * prio
		}
		for i := 0; i < int(epochs); i++ {
			ep.Bump()
		}
		return tk.Counter(ep) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterNeverExceedsTwicePriority(t *testing.T) {
	f := func(start uint8, prio8 uint8, epochs uint8) bool {
		prio := int(prio8%MaxPriority) + 1
		ep := &Epoch{}
		tk := New(1, "t", nil, ep)
		tk.Priority = prio
		tk.SetCounter(ep, int(start)%(2*prio+1))
		for i := 0; i < int(epochs); i++ {
			ep.Bump()
		}
		return tk.Counter(ep) <= tk.MaxCounter()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictedCounterMatchesActualRecalc(t *testing.T) {
	// The ELSC invariant (paper §5.1): the predicted counter used to
	// pre-index an exhausted task must equal the counter the task really
	// has after the next recalculation.
	f := func(start uint8, prio8 uint8) bool {
		prio := int(prio8%MaxPriority) + 1
		ep := &Epoch{}
		tk := New(1, "t", nil, ep)
		tk.Priority = prio
		tk.SetCounter(ep, int(start)%(2*prio+1))
		predicted := tk.PredictedCounter(ep)
		ep.Bump()
		return tk.Counter(ep) == predicted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticGoodness(t *testing.T) {
	ep := &Epoch{}
	tk := New(1, "t", nil, ep)
	tk.Priority = 20
	tk.SetCounter(ep, 13)
	if got := tk.StaticGoodness(ep); got != 33 {
		t.Fatalf("static goodness = %d, want 33", got)
	}
}

func TestSyncCounterNilEpoch(t *testing.T) {
	tk := New(1, "t", nil, nil)
	tk.SyncCounter(nil) // must not panic
	if tk.Counter(nil) != tk.Priority {
		t.Fatal("counter should be unchanged with nil epoch")
	}
}

func TestStateStrings(t *testing.T) {
	cases := map[State]string{
		Running:       "running",
		Interruptible: "interruptible",
		Zombie:        "zombie",
		State(99):     "state(99)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{
		Other:      "SCHED_OTHER",
		FIFO:       "SCHED_FIFO",
		RR:         "SCHED_RR",
		Policy(42): "policy(42)",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Policy.String() = %q, want %q", p.String(), want)
		}
	}
}

func TestTaskString(t *testing.T) {
	tk := New(7, "worker", nil, nil)
	if tk.String() != "task7(worker)" {
		t.Fatalf("String = %q", tk.String())
	}
}

// TestTableLinksTasks: a task takes a slot the first time it is linked and
// keeps it across removal, First and Next load tasks back from the table,
// and a removed task is off the run queue with no successor.
func TestTableLinksTasks(t *testing.T) {
	var tb Table
	var h klist.Head
	if tb.First(&h) != nil {
		t.Fatal("First of an empty list in an empty table should be nil")
	}
	a, b := New(1, "a", nil, nil), New(2, "b", nil, nil)
	for _, tk := range []*Task{a, b} {
		n, i := tb.Link(tk)
		tb.Nodes().PushBack(&h, n, i)
	}
	if tb.First(&h) != a || tb.Next(a) != b || tb.Next(b) != nil {
		t.Fatal("First/Next should walk a then b")
	}
	n, slot := tb.Link(a)
	tb.Nodes().Remove(&h, n, slot)
	if tb.Next(a) != nil || a.OnRunqueue() {
		t.Fatal("a removed task is off the run queue and has no successor")
	}
	if n2, again := tb.Link(a); n2 != &a.RunList || again != slot || len(tb.tasks) != int(klist.Base)+2 {
		t.Fatalf("re-linked task moved from slot %d to %d (table of %d)", slot, again, len(tb.tasks))
	}
}

func TestMaxCounter(t *testing.T) {
	tk := New(1, "t", nil, nil)
	tk.Priority = 17
	if tk.MaxCounter() != 34 {
		t.Fatalf("MaxCounter = %d, want 34", tk.MaxCounter())
	}
}

// TestRunListSizes: the run list is index-linked, so a link is two uint32
// slots (it was 40 bytes) and a list head two slots and a length (it was
// 48) — o1 holds 80 heads per CPU, reg 64 per machine. A machine holds one
// Task per thread (800+ in a VolanoMark cell); Task was 256 bytes with a
// 40-byte pointer link and an owner interface, and is at most 192 now, the
// size class whose objects start on a cache line (Task's field order puts
// the enqueue path's fields in its first one). A field added without room
// costs every task 16 bytes of host memory and that alignment; grouping
// small fields is how room is made.
func TestRunListSizes(t *testing.T) {
	if sz := unsafe.Sizeof(klist.Node{}); sz != 8 {
		t.Errorf("sizeof(klist.Node) = %d, want 8", sz)
	}
	if sz := unsafe.Sizeof(klist.Head{}); sz > 12 {
		t.Errorf("sizeof(klist.Head) = %d, want <= 12", sz)
	}
	if sz := unsafe.Sizeof(Task{}); sz > 192 {
		t.Errorf("sizeof(Task) = %d, want <= 192", sz)
	}
}
