package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, "t", func(now Time) { got = append(got, now) })
	}
	e.Run(nil)
	want := []Time{5, 10, 10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at the same instant must fire in scheduling order.
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "t", func(Time) { got = append(got, i) })
	}
	e.Run(nil)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time order %v, want ascending", got)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	var e Engine
	var at Time
	e.At(50, "a", func(now Time) {
		e.After(25, "b", func(now2 Time) { at = now2 })
	})
	e.Run(nil)
	if at != 75 {
		t.Fatalf("After fired at %d, want 75", at)
	}
}

func TestCancelPreventsFire(t *testing.T) {
	var e Engine
	fired := false
	ev := e.At(10, "x", func(Time) { fired = true })
	e.Cancel(ev)
	e.Run(nil)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	var e Engine
	fired := false
	ev := e.At(20, "victim", func(Time) { fired = true })
	e.At(10, "killer", func(Time) { e.Cancel(ev) })
	e.Run(nil)
	if fired {
		t.Fatal("event cancelled at t=10 still fired at t=20")
	}
}

func TestCancelTwiceIsNoop(t *testing.T) {
	var e Engine
	ev := e.At(10, "x", func(Time) {})
	e.Cancel(ev)
	e.Cancel(ev) // must not panic
	e.Run(nil)
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(100, "a", func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(50, "past", func(Time) {})
	})
	e.Run(nil)
}

func TestMaxDurHorizon(t *testing.T) {
	var e Engine
	e.MaxDur = 55
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		e.After(10, "tick", tick)
	}
	e.After(10, "tick", tick)
	e.Run(nil)
	if count != 5 {
		t.Fatalf("ticks = %d, want 5 (horizon 55, period 10)", count)
	}
}

func TestStopPredicate(t *testing.T) {
	var e Engine
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		e.After(1, "tick", tick)
	}
	e.After(1, "tick", tick)
	e.Run(func() bool { return count >= 7 })
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
}

func TestFiredCountsDispatchedOnly(t *testing.T) {
	var e Engine
	e.At(1, "a", func(Time) {})
	ev := e.At(2, "b", func(Time) {})
	e.Cancel(ev)
	e.At(3, "c", func(Time) {})
	e.Run(nil)
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestPendingCount(t *testing.T) {
	var e Engine
	e.At(1, "a", func(Time) {})
	e.At(2, "b", func(Time) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

// TestHeapOrderingQuick (named for the structure it was written against)
// drives the engine with arbitrary offsets and checks
// that observed firing times are monotonically non-decreasing.
func TestHeapOrderingQuick(t *testing.T) {
	f := func(offsets []uint16) bool {
		var e Engine
		var last Time
		ok := true
		for _, off := range offsets {
			e.At(Time(off), "x", func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run(nil)
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxDurSkipsCancelledWithoutOvershoot: cancelling the earliest
// event inside the MaxDur horizon must not trick the capped scan into
// dispatching the next live event past it.
func TestMaxDurSkipsCancelledWithoutOvershoot(t *testing.T) {
	var e Engine
	e.MaxDur = 100
	ev := e.At(50, "victim", func(Time) {})
	fired := false
	e.At(200, "late", func(Time) { fired = true })
	e.Cancel(ev)
	e.Run(nil)
	if fired {
		t.Fatal("event at t=200 fired inside a MaxDur of 100")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the late event)", e.Pending())
	}
}

// TestCancelledEventNotPending: a cancelled event leaves the Pending
// count, and its own Pending report, at once.
func TestCancelledEventNotPending(t *testing.T) {
	var e Engine
	ev := e.At(10, "x", func(Time) {})
	e.At(20, "y", func(Time) {})
	e.Cancel(ev)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", e.Pending())
	}
	if ev.Pending() {
		t.Fatal("cancelled event reports Pending")
	}
	e.Run(nil)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", e.Pending())
	}
}

// TestStepAllocs asserts the zero-allocation contract: once the freelist
// and wheel are warm, a steady-state After→Step cycle must not touch the
// allocator at all.
func TestStepAllocs(t *testing.T) {
	var e Engine
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		e.After(Cycles(i), "warm", fn)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(10, "steady", fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After→Step allocates %.1f objects/event, want 0", allocs)
	}
}

// TestRearmedEventAllocs: a caller-owned recurring event (the kernel's
// timer tick shape) re-arms itself forever without allocating.
func TestRearmedEventAllocs(t *testing.T) {
	var e Engine
	count := 0
	var ev *Event
	ev = e.NewEvent("tick", func(Time) {
		count++
		e.ScheduleAfter(ev, 10)
	})
	e.Schedule(ev, 10)
	e.Step() // warm
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("re-armed tick allocates %.1f objects/fire, want 0", allocs)
	}
	if count < 1000 {
		t.Fatalf("tick fired %d times, want >= 1000", count)
	}
}

// TestRearmFIFOWithFreshEvents: a re-armed event takes a fresh sequence
// number, so it still fires in scheduling order against events armed at
// the same instant.
func TestRearmFIFOWithFreshEvents(t *testing.T) {
	var e Engine
	var got []string
	var ev *Event
	ev = e.NewEvent("a", func(Time) { got = append(got, "a") })
	e.Schedule(ev, 100)
	e.At(100, "b", func(Time) { got = append(got, "b") })
	e.Run(nil)
	e.Schedule(ev, e.Now()+50)
	e.At(e.Now()+50, "c", func(Time) { got = append(got, "c") })
	e.Run(nil)
	want := "a,b,a,c"
	if strings.Join(got, ",") != want {
		t.Fatalf("fire order %v, want %s", got, want)
	}
}

// TestScheduleMisusePanics: arming an engine-owned event, or an event
// still queued, must panic loudly rather than corrupt a slot list.
func TestScheduleMisusePanics(t *testing.T) {
	var e Engine
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	ev := e.At(10, "engine-owned", func(Time) {})
	mustPanic("Schedule of engine-owned event", func() { e.Schedule(ev, 20) })
	own := e.NewEvent("own", func(Time) {})
	e.Schedule(own, 30)
	mustPanic("Schedule of queued event", func() { e.Schedule(own, 40) })
}

// TestFreelistReuseKeepsIdentity: after an event fires, a later After may
// hand back the same object for a new logical event; the old firing must
// not replay and the new callback must run exactly once.
func TestFreelistReuseKeepsIdentity(t *testing.T) {
	var e Engine
	firstFired, secondFired := 0, 0
	e.After(10, "first", func(Time) { firstFired++ })
	e.Run(nil)
	e.After(10, "second", func(Time) { secondFired++ })
	e.Run(nil)
	if firstFired != 1 || secondFired != 1 {
		t.Fatalf("fired counts first=%d second=%d, want 1/1", firstFired, secondFired)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds collide %d/100 times", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("Range(5,9) = %d out of range", v)
		}
	}
	if got := r.Range(4, 4); got != 4 {
		t.Fatalf("Range(4,4) = %d, want 4", got)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
