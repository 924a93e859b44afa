package sim

import (
	"fmt"
	"testing"
)

// BenchmarkAfterStep is the engine's steady-state unit of work: schedule
// one event, dispatch it. This is the cycle the freelist and the wheel's
// level-0 arm exist for; allocs/op must read 0.
func BenchmarkAfterStep(b *testing.B) {
	var e Engine
	fn := func(Time) {}
	e.After(1, "warm", fn)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(10, "ev", fn)
		e.Step()
	}
}

// BenchmarkSlotChurn measures a dispatch against one populated level-0
// slot: n events pending inside a 97-cycle span, each iteration schedules
// a replacement somewhere among them — the slot's sorted insert, whose
// walk grows with n — and fires the earliest.
func BenchmarkSlotChurn(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("pending%d", n), func(b *testing.B) {
			var e Engine
			fn := func(Time) {}
			for i := 0; i < n; i++ {
				e.After(Cycles(1+i%97), "pend", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.After(Cycles(1+i%97), "ev", fn)
				e.Step()
			}
		})
	}
}

// BenchmarkCancel measures Cancel's unlink beside n pending events that
// start in one slot: arm a victim, cancel it, arm and fire a live event.
// The cost must not depend on n.
func BenchmarkCancel(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("pending%d", n), func(b *testing.B) {
			var e Engine
			fn := func(Time) {}
			for i := 0; i < n; i++ {
				e.After(Cycles(1+i%97), "pend", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.After(50, "victim", fn)
				e.Cancel(ev)
				e.After(10, "live", fn)
				e.Step()
			}
		})
	}
}

// BenchmarkRearmTick measures the caller-owned recurring event path the
// kernel's timer tick uses: re-arm in place, no freelist traffic at all.
func BenchmarkRearmTick(b *testing.B) {
	var e Engine
	var ev *Event
	ev = e.NewEvent("tick", func(Time) { e.ScheduleAfter(ev, 10) })
	e.Schedule(ev, 10)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCancelRearm is the kernel's interrupted-segment shape against a
// dense slot: a caller-owned event is armed behind n pending events that
// share its slot for the whole run, cancelled, armed again ahead of them,
// and fired. Flat in n is what the doubly linked slots are for.
func BenchmarkCancelRearm(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("pending%d", n), func(b *testing.B) {
			var e Engine
			fn := func(Time) {}
			for i := 0; i < n; i++ {
				e.At(300, "pend", fn)
			}
			ev := e.NewEvent("rundone", fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(ev, 400)
				e.Cancel(ev)
				e.Schedule(ev, 0)
				e.Step()
			}
			if e.Pending() != n {
				b.Fatalf("Pending = %d, want the %d untouched", e.Pending(), n)
			}
		})
	}
}
