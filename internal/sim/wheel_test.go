package sim

import (
	"fmt"
	"runtime"
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
	tick = e.NewEvent("tick", func(now Time) {
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

// TestPastHorizonFiresOnTime: deadlines laps past the horizon wait in the
// top level, are re-filed there each lap, and fire at their own instants
// in (At, seq) order among nearer ones — an equal-instant pair by arm
// order, a near one first, one a cycle past a lap boundary after its
// neighbour.
func TestPastHorizonFiresOnTime(t *testing.T) {
	var e Engine
	type arm struct {
		name string
		at   Time
	}
	const far = 5 * wheelHorizon
	arms := []arm{
		{"far-b", far + 3*wheelGran2 + 7},
		{"near", 100},
		{"far-a", far + 3*wheelGran2},
		{"far-b2", far + 3*wheelGran2 + 7},
		{"lap", far},
		{"inside", wheelHorizon - 1},
		{"lap+1", far + 1},
	}
	var got []string
	for _, a := range arms {
		a := a
		e.At(a.at, a.name, func(now Time) {
			if now != a.at {
				t.Errorf("%s fired at %d, want %d", a.name, now, a.at)
			}
			got = append(got, a.name)
		})
	}
	e.Run(nil)
	if want := "near,inside,lap,lap+1,far-a,far-b,far-b2"; strings.Join(got, ",") != want {
		t.Fatalf("fire order %v, want %s", got, want)
	}
	if e.Fired() != uint64(len(arms)) || e.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d, want %d and 0", e.Fired(), e.Pending(), len(arms))
	}
}

// BenchmarkWheelTick measures the wheel's periodic fast path: one
// kernel-tick-style event re-arming itself every 4M cycles, which lands
// in wheel level 1 and cascades once per fire. This is the dominant
// event shape of a machine simulation.
func BenchmarkWheelTick(b *testing.B) {
	e := new(Engine)
	var tick *Event
	tick = e.NewEvent("tick", func(now Time) {
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
	ev = e.NewEvent("cascade", func(now Time) {
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
	tick = e.NewEvent("tick", func(now Time) {
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

// tailOf returns s's last resident, or nil: its head's wheelPrev.
func tailOf(s *slot) *Event {
	if s.head == nil {
		return nil
	}
	return s.head.wheelPrev
}

// slotOf returns the slot ev is linked in, after checking the whole list's
// links against each other and the head's link to the tail.
func slotOf(t *testing.T, e *Engine, ev *Event) *slot {
	t.Helper()
	s := &e.wheel.slots[slotIndex(int(ev.level), ev.At)]
	var prev *Event
	found := false
	for x := s.head; x != nil; prev, x = x, x.wheelNext {
		if x != s.head && x.wheelPrev != prev {
			t.Fatalf("%s@%d: wheelPrev does not mirror wheelNext", x.Name, x.At)
		}
		found = found || x == ev
	}
	if tailOf(s) != prev {
		t.Fatal("the head's wheelPrev is not the last link")
	}
	if !found {
		t.Fatalf("%s@%d is not in the slot its level and deadline select", ev.Name, ev.At)
	}
	return s
}

// TestCancelThenRearmOwned: a cancelled caller-owned event is unlinked on
// the spot, so it can be armed again at once — at every wheel level and
// past the horizon — and takes its place among same-slot neighbours by
// (At, seq) like any fresh arm. Under lazy cancel Schedule panicked here
// ("still queued") until the corpse surfaced.
func TestCancelThenRearmOwned(t *testing.T) {
	type levelCase struct {
		name  string
		d     Cycles
		level uint8
	}
	// Each level mid-ring, then a deadline just under and at its ring
	// span — the last under-span one the horizon's edge — and one just
	// past the horizon. The top level holds both of the last two.
	const top = wheelLevels - 1
	var cases []levelCase
	for l := 0; l < wheelLevels; l++ {
		span := Cycles(1) << levelShift[l+1]
		cases = append(cases,
			levelCase{fmt.Sprintf("level%d", l), Cycles(1)<<levelShift[l] + 100_000, uint8(l)},
			levelCase{fmt.Sprintf("level%d-span-1", l), span - 1, uint8(l)},
			levelCase{fmt.Sprintf("level%d-span", l), span, uint8(min(l+1, top))})
	}
	cases = append(cases, levelCase{"overflow", wheelHorizon + 1, top})
	for _, tc := range cases {
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
			if same.Pending() || same.wheelNext != nil || same.wheelPrev != nil {
				t.Fatalf("cancelled event: Pending=%v, links %p %p",
					same.Pending(), same.wheelNext, same.wheelPrev)
			}
			e.ScheduleAfter(same, tc.d) // same instant, newer seq: now behind b
			pending(5)
			if !same.Pending() {
				t.Fatal("re-armed event is not pending")
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
// middle and tail of a 4096-event slot each leave the list, its head's
// link to the tail and the resident counts exact, and what remains fires in arm
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
	if s.head != evs[1] || tailOf(s) != evs[n-2] {
		t.Fatal("head or tail not repaired after cancelling them")
	}
	if e.Pending() != n-3 || e.wheel.count != n-3 || e.wheel.occ[0] != n-3 {
		t.Fatalf("Pending=%d count=%d occ[0]=%d, want %d each", e.Pending(), e.wheel.count, e.wheel.occ[0], n-3)
	}
	last := e.At(100, "appended", func(Time) { got = append(got, n) })
	if tailOf(slotOf(t, &e, last)) != last {
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
	if e.wheel.count != 0 || s.head != nil {
		t.Fatal("slot not empty after the drain")
	}
}

// TestNextLapDeadlineKeepsOutOfTheCursorSlot: the cursor stands on a slot
// boundary, so a deadline just under one ring span ahead of a mid-slot
// clock belongs to the next level up. Measured from the clock itself it
// indexed the cursor's own level-0 slot and fired a lap early, ahead of
// everything armed after it. Checked just under and at every level's
// span; the last level's span is the horizon, past which the deadline
// waits a lap in the top level.
func TestNextLapDeadlineKeepsOutOfTheCursorSlot(t *testing.T) {
	for l := 0; l < wheelLevels; l++ {
		span := Cycles(1) << levelShift[l+1]
		for _, d := range []Cycles{span - 1, span} {
			var e Engine
			var got []Time
			fn := func(now Time) { got = append(got, now) }
			e.At(wheelGran0-1, "warm", fn)
			e.Step() // empty wheel, clock on the last cycle of slot 0
			e.After(d, "far", fn)
			e.After(1000, "near", fn)
			e.Run(nil)
			if len(got) != 3 || got[1] != wheelGran0-1+1000 || got[2] != Time(wheelGran0-1+d) {
				t.Fatalf("level %d, far deadline %d ahead: fired at %v, want the near one first and the far one on time", l, d, got)
			}
		}
	}
}

// TestWheelGeometry: the named spans agree with the per-level tables, and
// every level's ring starts on a bitmap word and holds as many slots as
// its mask and shifts say.
func TestWheelGeometry(t *testing.T) {
	if wheelSpan0 != 1<<levelShift[1] || wheelGran2 != 1<<levelShift[2] || wheelHorizon != 1<<levelShift[wheelLevels] {
		t.Fatalf("wheelSpan0/wheelGran2/wheelHorizon disagree with levelShift %v", levelShift)
	}
	for l := 0; l < wheelLevels; l++ {
		n := levelBase[l+1] - levelBase[l]
		if levelBase[l]%64 != 0 || n != levelMask[l]+1 || 1<<(levelShift[l+1]-levelShift[l]) != n {
			t.Fatalf("level %d: base %d, %d slots, mask %d, shifts %d..%d", l, levelBase[l], n, levelMask[l], levelShift[l], levelShift[l+1])
		}
	}
}

// wheelHeapBudget is what a fresh engine's first arm may allocate: the
// 19,072-byte size class the one-pointer ring lands in. With two-pointer
// slots it was five pages, 40,960 bytes, and with three 2048-slot levels
// 106,496.
const wheelHeapBudget = 19_072

// TestWheelHeapBudget: a fresh engine's first arm allocates the wheel and
// nothing else, within wheelHeapBudget. Every fresh machine pays it, and
// every recycled engine and sweep worker keeps it live.
func TestWheelHeapBudget(t *testing.T) {
	var best uint64
	for i := 0; i < 5; i++ {
		e := new(Engine)
		ev := e.NewEvent("first", func(Time) {})
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		e.Schedule(ev, 100)
		runtime.ReadMemStats(&ms1)
		if n := ms1.TotalAlloc - ms0.TotalAlloc; i == 0 || n < best {
			best = n
		}
		runtime.KeepAlive(e)
	}
	if best == 0 || best > wheelHeapBudget {
		t.Fatalf("a fresh engine's first arm allocated %d bytes, budget %d", best, wheelHeapBudget)
	}
	t.Logf("a fresh engine's first arm allocates %d bytes", best)
}

// TestHorizonStopMovesClock: a Step refused at the MaxDur horizon with an
// event pending past it moves the clock to the horizon, and the cursor,
// which the refused scan stopped at or before the horizon, is not ahead of
// it: an arm at the new Now fires, in order, before the event past it.
// The clock moves only forward, and only with an event pending.
func TestHorizonStopMovesClock(t *testing.T) {
	var e Engine
	var got []string
	log := func(name string) func(Time) { return func(Time) { got = append(got, name) } }
	e.At(3*wheelGran0, "early", log("early"))
	e.At(100*wheelGran0, "late", log("late"))
	e.MaxDur = 10*wheelGran0 + 7
	e.Run(nil)
	if e.Now() != e.MaxDur {
		t.Fatalf("Now = %d after the horizon stop, want the horizon %d", e.Now(), e.MaxDur)
	}
	if e.wheel.cur > e.Now() {
		t.Fatalf("cursor %d leads the clock %d", e.wheel.cur, e.Now())
	}
	e.MaxDur = 5 * wheelGran0 // behind the clock
	if e.Step() || e.Now() != 10*wheelGran0+7 {
		t.Fatalf("a horizon behind the clock moved it to %d", e.Now())
	}
	e.MaxDur = 0
	e.After(0, "now", log("now"))
	e.After(wheelGran0, "next", log("next"))
	e.Run(nil)
	if want := "early,now,next,late"; strings.Join(got, ",") != want {
		t.Fatalf("fire order %v, want %s", got, want)
	}
	e.MaxDur = 1000 * wheelGran0
	if e.Step() || e.Now() != 100*wheelGran0 {
		t.Fatalf("a Step with nothing pending moved the clock to %d", e.Now())
	}
}
