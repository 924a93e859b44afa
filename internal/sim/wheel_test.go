package sim

import (
	"strings"
	"testing"
)

// TestWheelAllocs proves the wheel's steady state is allocation-free: a
// warmed engine re-arming a periodic event and recycling one-shot
// events through the freelist performs zero heap allocations per
// schedule/dispatch cycle. The first arm pays for the wheel rings and
// the Event; everything after that must be reuse.
func TestWheelAllocs(t *testing.T) {
	e := new(Engine)
	var tick *Event
	period := Cycles(4_000_000) // a kernel tick: lands in wheel level 1
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, period)
	})
	e.ScheduleAfter(tick, period)
	// Warm the wheel, the freelist, and the one-shot path.
	e.After(1_000, "warm", func(Time) {})
	for i := 0; i < 64; i++ {
		e.Step()
	}
	if n := testing.AllocsPerRun(200, func() {
		e.After(45_000, "oneshot", func(Time) {})
		e.Step()
	}); n != 0 {
		t.Fatalf("wheel steady state allocates %.1f allocs/op, want 0", n)
	}
}

// TestWheelHeapSplitCounts checks FiredWheel/FiredHeap partition Fired:
// every deadline inside the horizon dispatches from the wheel — a far
// one-shot as much as a near one — and only one past the horizon, with
// nothing left on the wheel to carry the cursor towards it, fires from
// the overflow, which FiredHeap counts.
func TestWheelHeapSplitCounts(t *testing.T) {
	e := new(Engine)
	e.After(100, "near", func(Time) {})
	e.After(wheelGran2+100, "far", func(Time) {})
	e.After(wheelGran2+wheelGran0+wheelHorizon, "beyond", func(Time) {})
	e.Run(nil)
	if e.FiredWheel() != 2 || e.FiredHeap() != 1 {
		t.Fatalf("FiredWheel=%d FiredHeap=%d, want 2 and 1", e.FiredWheel(), e.FiredHeap())
	}
	if e.Fired() != e.FiredWheel()+e.FiredHeap() {
		t.Fatalf("Fired=%d does not equal wheel+overflow=%d", e.Fired(), e.FiredWheel()+e.FiredHeap())
	}
}

// BenchmarkWheelTick measures the wheel's periodic fast path: one
// kernel-tick-style event re-arming itself every 4M cycles, which lands
// in wheel level 1 and cascades once per fire. This is the dominant
// event shape of a machine simulation.
func BenchmarkWheelTick(b *testing.B) {
	e := new(Engine)
	var tick *Event
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, 4_000_000)
	})
	e.ScheduleAfter(tick, 4_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCascade measures cross-level traffic: every event is
// inserted a full level-0 span ahead, so each one parks in level 1 and
// must cascade into level 0 before it can fire.
func BenchmarkCascade(b *testing.B) {
	e := new(Engine)
	var ev *Event
	ev = e.NewPeriodicEvent("cascade", func(now Time) {
		e.ScheduleAfter(ev, Cycles(wheelSpan0)+wheelGran0*3)
	})
	e.ScheduleAfter(ev, Cycles(wheelSpan0)+wheelGran0*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkWheelMixed interleaves a periodic tick with short one-shot
// events — the IPC-heavy cell shape, where most arms and pops hit
// level 0 and the scan cache.
func BenchmarkWheelMixed(b *testing.B) {
	e := new(Engine)
	var tick *Event
	tick = e.NewPeriodicEvent("tick", func(now Time) {
		e.ScheduleAfter(tick, 4_000_000)
	})
	e.ScheduleAfter(tick, 4_000_000)
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Cycles(20_000+(i%7)*11_000), "io", fn)
		e.Step()
	}
}

// slotOf returns the slot (or the overflow list) ev is linked in, after
// checking the whole list's links against each other and its tail.
func slotOf(t *testing.T, e *Engine, ev *Event) *slot {
	t.Helper()
	w := e.wheel
	s := &w.over
	if l := int(ev.level); l < wheelLevels {
		s = &w.slots[l][int(ev.At>>(wheelShift+wheelBits*l))&wheelMask]
	}
	var prev *Event
	found := false
	for x := s.head; x != nil; prev, x = x, x.wheelNext {
		if x.wheelPrev != prev {
			t.Fatalf("%s@%d: wheelPrev does not mirror wheelNext", x.Name, x.At)
		}
		found = found || x == ev
	}
	if s.tail != prev {
		t.Fatal("slot tail is not the last link")
	}
	if !found {
		t.Fatalf("%s@%d is not in the slot its level and deadline select", ev.Name, ev.At)
	}
	return s
}

// TestCancelThenRearmOwned: a cancelled caller-owned event is unlinked on
// the spot, so it can be armed again at once — at every wheel level and
// in the overflow — and takes its place among same-slot neighbours by
// (At, seq) like any fresh arm. Under lazy cancel Schedule panicked here
// ("still queued") until the corpse surfaced.
func TestCancelThenRearmOwned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		d     Cycles
		level uint8
	}{
		{"level0", 100_000, 0},
		{"level1", wheelSpan0 + 100_000, 1},
		{"level2", wheelGran2 + 100_000, 2},
		{"overflow", wheelHorizon + 100_000, levelOver},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Engine
			var got []string
			log := func(name string) func(Time) { return func(Time) { got = append(got, name) } }
			pending := func(want int) {
				t.Helper()
				if e.Pending() != want {
					t.Fatalf("Pending = %d, want %d", e.Pending(), want)
				}
			}
			e.After(10, "first", log("first")) // the wheel holds something: arms take the common path
			e.After(tc.d, "a", log("a"))
			same := e.NewEvent("same", log("same"))
			early := e.NewEvent("early", log("early"))
			e.ScheduleAfter(same, tc.d)
			e.ScheduleAfter(early, tc.d)
			e.After(tc.d, "b", log("b"))
			pending(5)
			if same.level != tc.level {
				t.Fatalf("armed at level %d, want %d", same.level, tc.level)
			}
			slotOf(t, &e, same)

			e.Cancel(same)
			pending(4)
			if same.Pending() || !same.Cancelled() || same.wheelNext != nil || same.wheelPrev != nil {
				t.Fatalf("cancelled event: Pending=%v Cancelled=%v, links %p %p",
					same.Pending(), same.Cancelled(), same.wheelNext, same.wheelPrev)
			}
			e.ScheduleAfter(same, tc.d) // same instant, newer seq: now behind b
			pending(5)
			if !same.Pending() || same.Cancelled() {
				t.Fatalf("re-armed event: Pending=%v Cancelled=%v", same.Pending(), same.Cancelled())
			}
			slotOf(t, &e, same)

			e.Cancel(early)
			pending(4)
			e.ScheduleAfter(early, tc.d-1) // one cycle ahead of its neighbours
			pending(5)
			slotOf(t, &e, early)

			e.Run(nil)
			pending(0)
			if want := "first,early,a,b,same"; strings.Join(got, ",") != want {
				t.Fatalf("fire order %v, want %s", got, want)
			}
		})
	}
}

// TestCancelMiddleOfDenseSlot: Cancel is an unlink, not a search — head,
// middle and tail of a 4096-event slot each leave the list, its tail
// pointer and the resident counts exact, and what remains fires in arm
// order.
func TestCancelMiddleOfDenseSlot(t *testing.T) {
	const n = 4096
	var e Engine
	var got []int
	evs := make([]*Event, n)
	for i := range evs {
		i := i
		evs[i] = e.At(100, "dense", func(Time) { got = append(got, i) })
	}
	s := slotOf(t, &e, evs[0])
	for _, i := range []int{0, n / 2, n - 1} {
		e.Cancel(evs[i])
		evs[i] = nil
	}
	if s.head != evs[1] || s.tail != evs[n-2] {
		t.Fatal("head or tail not repaired after cancelling them")
	}
	if e.Pending() != n-3 || e.wheel.count != n-3 || e.wheel.occ[0] != n-3 {
		t.Fatalf("Pending=%d count=%d occ[0]=%d, want %d each", e.Pending(), e.wheel.count, e.wheel.occ[0], n-3)
	}
	last := e.At(100, "appended", func(Time) { got = append(got, n) })
	if slotOf(t, &e, last).tail != last {
		t.Fatal("a fresh arm did not append behind the repaired tail")
	}
	e.Run(nil)
	if len(got) != n-2 {
		t.Fatalf("%d events fired, want %d", len(got), n-2)
	}
	want := 1
	for _, i := range got {
		if want == n/2 || want == n-1 {
			want++
		}
		if i != want {
			t.Fatalf("fired #%d where #%d was due", i, want)
		}
		want++
	}
	if e.wheel.count != 0 || s.head != nil || s.tail != nil {
		t.Fatal("slot not empty after the drain")
	}
}

// TestNextLapDeadlineKeepsOutOfTheCursorSlot: the cursor stands on a slot
// boundary, so a deadline just under one ring span ahead of a mid-slot
// clock belongs to level 1. Measured from the clock itself it indexed the
// cursor's own level-0 slot and fired a lap early, ahead of everything
// armed after it.
func TestNextLapDeadlineKeepsOutOfTheCursorSlot(t *testing.T) {
	var e Engine
	var got []Time
	fn := func(now Time) { got = append(got, now) }
	e.At(wheelGran0-1, "warm", fn)
	e.Step() // empty wheel, clock on the last cycle of slot 0
	e.After(wheelSpan0-1, "far", fn)
	e.After(1000, "near", fn)
	e.Run(nil)
	if got[1] != wheelGran0-1+1000 || got[2] != wheelGran0-1+wheelSpan0-1 {
		t.Fatalf("fired at %v: the far deadline overtook the near one", got)
	}
}

// TestArmBehindCursor: a dispatch that stops at the MaxDur horizon leaves
// the cursor where the scan stopped, ahead of the clock; an arm between
// the two cannot ride the rings and fires, in order, from the overflow.
func TestArmBehindCursor(t *testing.T) {
	var e Engine
	var got []string
	log := func(name string) func(Time) { return func(Time) { got = append(got, name) } }
	e.MaxDur = 10 * wheelGran0
	e.At(100*wheelGran0, "late", log("late"))
	if e.Step() {
		t.Fatal("Step fired an event past MaxDur")
	}
	if e.wheel.cur <= e.Now() {
		t.Fatalf("cursor %d did not advance past the clock %d; the test needs a new way to strand it", e.wheel.cur, e.Now())
	}
	e.MaxDur = 0
	behind := e.At(wheelGran0, "behind", log("behind"))
	if behind.level != levelOver {
		t.Fatalf("arm behind the cursor took level %d", behind.level)
	}
	e.At(50*wheelGran0, "ahead", log("ahead"))
	e.Run(nil)
	if want := "behind,ahead,late"; strings.Join(got, ",") != want {
		t.Fatalf("fire order %v, want %s", got, want)
	}
	if e.FiredHeap() != 1 || e.FiredWheel() != 2 {
		t.Fatalf("FiredHeap=%d FiredWheel=%d, want 1 and 2", e.FiredHeap(), e.FiredWheel())
	}
}
