// Engine core: the event, its ownership rules, the freelist, and the one
// arm path and one fire path over the timer wheel. Package documentation —
// the wheel's geometry, what the overflow list holds, and the measured
// reasons for both — lives in doc.go.
package sim

import "math/bits"

// Time is a point in virtual time, in CPU clock cycles.
type Time uint64

// Cycles is a duration in CPU clock cycles.
type Cycles = uint64

// Event is a scheduled callback. Events are single-shot; recurring behavior
// is built by rescheduling from within the callback.
//
// Ownership is decided by who made the object. Events returned by At and
// After are owned by the engine: once the callback has fired, or the event
// has been cancelled, the object is recycled for a later At/After and the
// old pointer must not be used again (drop or nil any reference at that
// point). Every other Event — one built with NewEvent or NewPeriodicEvent,
// or a caller's own Event value with Name and Fn set, which lets several
// live in one allocation — is owned by the caller, is never recycled, and
// may be armed with Schedule whenever it is not pending: after it fired
// (a recurring timer re-arms itself from inside Fn) or after Cancel (a
// preempted deadline is armed again at its new time). That is the shape
// for timers that must not touch the allocator.
type Event struct {
	At   Time
	Fn   func(now Time)
	Name string // for traces and debugging

	seq       uint64
	queued    bool
	cancelled bool
	pooled    bool  // engine-owned (At/After): recycled after firing or cancel
	level     uint8 // wheel level the event is linked in; levelOver in the overflow
	// Slot list links; both nil whenever the event is not queued, so a
	// recycled or idle event pins nothing of the simulation it served.
	wheelNext *Event
	wheelPrev *Event
}

// Cancelled reports whether the event's last arming ended in Cancel.
func (e *Event) Cancelled() bool { return e.cancelled }

// Pending reports whether the event is queued to fire.
func (e *Event) Pending() bool { return e.queued }

// Engine owns the virtual clock and the pending event set.
// The zero value is ready to use.
type Engine struct {
	now        Time
	wheel      *wheel // allocated on the first arm
	free       []*Event
	nexts      uint64
	firedWheel uint64
	firedOver  uint64
	pending    int
	MaxDur     Time // optional hard stop measured from time zero; 0 = none
}

// maxTime is the open-horizon dispatch limit.
const maxTime = Time(^uint64(0))

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.firedWheel + e.firedOver }

// FiredWheel returns how many dispatched events fired from a wheel slot.
func (e *Engine) FiredWheel() uint64 { return e.firedWheel }

// FiredHeap returns how many dispatched events fired straight from the
// overflow list — deadlines the wheel could not express when they came
// due (see doc.go). The name predates the list: the counter used to
// report a min-heap, and digests and the benchmark read it by this name.
func (e *Engine) FiredHeap() uint64 { return e.firedOver }

// Pending returns the number of events currently queued to fire.
func (e *Engine) Pending() int { return e.pending }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality.
func (e *Engine) At(at Time, name string, fn func(now Time)) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{pooled: true}
	}
	ev.At = at
	ev.Fn = fn
	ev.Name = name
	e.arm(ev, at)
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, name string, fn func(now Time)) *Event {
	return e.At(e.now+Time(d), name, fn)
}

// NewEvent returns an unscheduled caller-owned event bound to fn. Arm it
// with Schedule/ScheduleAfter; it may be re-armed after each firing or
// cancel and is never recycled, so a long-lived recurring event costs one
// allocation for the machine's lifetime.
func (e *Engine) NewEvent(name string, fn func(now Time)) *Event {
	return &Event{Name: name, Fn: fn}
}

// NewPeriodicEvent is NewEvent. It used to mark an event as worth the
// wheel at any distance; every deadline inside the wheel's horizon now
// rides the wheel, so the two constructors build the same thing.
func (e *Engine) NewPeriodicEvent(name string, fn func(now Time)) *Event {
	return e.NewEvent(name, fn)
}

// Schedule arms a caller-owned event at absolute time at. The event must
// not be pending: it has never been armed, has fired, or was cancelled.
func (e *Engine) Schedule(ev *Event, at Time) {
	if ev.pooled {
		panic("sim: Schedule of an engine-owned event (use At/After)")
	}
	if ev.queued {
		panic("sim: Schedule of an event still queued")
	}
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev.At = at
	e.arm(ev, at)
}

// ScheduleAfter arms a caller-owned event d cycles from now.
func (e *Engine) ScheduleAfter(ev *Event, d Cycles) {
	e.Schedule(ev, e.now+Time(d))
}

// arm issues the next sequence number — one per arm, in arm order, which
// is what fixes same-instant firing order — and links the event in. The
// first case is most traffic (doc.go has the shares): the wheel holds
// something and the deadline lies in the level-0 ring, so the slot is an
// index away and a fresh arm (it carries the highest seq yet issued)
// belongs at its tail unless the slot already holds a later deadline.
// Everything else — first arm, empty wheel, coarser levels, a mid-slot
// insert, the overflow — is wheel.insert.
func (e *Engine) arm(ev *Event, at Time) {
	ev.seq = e.nexts
	e.nexts++
	ev.queued = true
	ev.cancelled = false
	e.pending++
	w := e.wheel
	if w != nil && w.count != 0 && at-w.cur < wheelSpan0 {
		idx := int(at>>wheelShift) & wheelMask
		s := &w.slots[0][idx]
		if t := s.tail; t == nil {
			s.head = ev
			w.bits[0][idx>>6] |= 1 << (idx & 63)
		} else if t.At <= at {
			t.wheelNext = ev
			ev.wheelPrev = t
		} else {
			w.insert(ev)
			return
		}
		s.tail = ev
		ev.level = 0
		w.count++
		w.occ[0]++
		if h := w.hit; h != nil && at < h.At {
			// Strictly before the confirmed earliest, so the new
			// confirmed earliest (an equal At keeps the incumbent: it
			// carries the older seq).
			w.hit = ev
		}
		return
	}
	if w == nil {
		w = new(wheel)
		e.wheel = w
	}
	if w.count == 0 {
		// Empty wheel: stand the cursor on the clock's slot so level
		// selection sees true deltas (it may trail the clock after a
		// stretch fired from the overflow, or lead it after a capped
		// advance).
		w.cur = e.now &^ (wheelGran0 - 1)
	}
	w.insert(ev)
}

// Cancel removes a pending event in O(1) whatever its slot holds: the
// event is unlinked on the spot, so a caller-owned event may be armed
// again at once, and an engine-owned one is recycled at once — drop the
// reference, it may back a later At/After from here on. Cancelling nil or
// an event that is not pending (never armed, fired, already cancelled) is
// a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.queued {
		return
	}
	e.wheel.remove(ev)
	ev.queued = false
	ev.cancelled = true
	e.pending--
	e.recycle(ev)
}

// recycle returns an engine-owned event that fired or was cancelled to the
// freelist. Caller-owned events are left to their owners.
func (e *Engine) recycle(ev *Event) {
	if ev.pooled {
		ev.Fn = nil // do not pin the callback's captures until reuse
		e.free = append(e.free, ev)
	}
}

// dispatch fires the next event at or before limit, reporting whether
// one fired. With the overflow empty — every committed cell, see doc.go —
// the wheel's confirmed earliest is the answer when there is one, and the
// scan behind it runs only when there is not.
func (e *Engine) dispatch(limit Time) bool {
	w := e.wheel
	if w == nil {
		return false
	}
	ev := w.hit
	if ev == nil || w.overMin != nil {
		if ev = w.earliest(e.now, limit); ev == nil {
			return false
		}
	} else if ev.At > limit {
		return false
	}
	if ev != w.hit {
		w.remove(ev)
		e.firedOver++
	} else {
		// ev heads the level-0 slot its deadline indexes. Its slot
		// successor, if any, is the wheel's next earliest: level-0 lists
		// are (At, seq)-sorted and every other resident lives at or past
		// this slot's window.
		idx := int(ev.At>>wheelShift) & wheelMask
		s := &w.slots[0][idx]
		next := ev.wheelNext
		s.head = next
		if next != nil {
			next.wheelPrev = nil
			ev.wheelNext = nil
		} else {
			s.tail = nil
			w.bits[0][idx>>6] &^= 1 << (idx & 63)
			// The slot drained: probe the rest of its bitmap word. Ring
			// indices above this one hold only current-window deadlines
			// (a next-lap arm lands strictly below the cursor's index),
			// which fire before every level-1/2 resident and every
			// wrapped slot, so the next occupied slot's head, if the
			// word has one, is the next earliest and a burst spanning
			// nearby slots never rescans.
			if word := w.bits[0][idx>>6] >> (idx & 63); word != 0 {
				next = w.slots[0][idx+bits.TrailingZeros64(word)].head
			}
		}
		w.hit = next
		w.count--
		w.occ[0]--
		e.firedWheel++
	}
	ev.queued = false
	e.pending--
	e.now = ev.At
	ev.Fn(e.now)
	e.recycle(ev)
	return true
}

// Step dispatches the next pending event, advancing the clock to its time.
// It returns false when no events remain or the MaxDur horizon has been
// reached.
func (e *Engine) Step() bool {
	limit := maxTime
	if e.MaxDur != 0 {
		limit = e.MaxDur
	}
	return e.dispatch(limit)
}

// Run dispatches events until none remain, stop returns true, or the
// MaxDur horizon is reached. A nil stop runs to completion.
func (e *Engine) Run(stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		if !e.Step() {
			return
		}
	}
}

// RunFor dispatches events until the clock would pass now+d. Events at
// exactly now+d still run. On return the clock stands at the deadline —
// clamped to the MaxDur horizon when that cuts the window short — even if
// no event reached it.
func (e *Engine) RunFor(d Cycles) {
	deadline := e.now + Time(d)
	limit := deadline
	if e.MaxDur != 0 && e.MaxDur < limit {
		limit = e.MaxDur
	}
	for e.dispatch(limit) {
	}
	if e.MaxDur != 0 && deadline > e.MaxDur {
		deadline = e.MaxDur
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Reset returns the engine to its zero state while keeping every
// allocation — wheel rings and freelist — so one engine can run many
// simulations back to back without re-paying construction. Pending
// engine-owned events are recycled; caller-owned events are detached
// (their owners die with the simulation that armed them).
func (e *Engine) Reset() {
	if e.wheel != nil {
		e.wheel.reset(e)
	}
	e.now = 0
	e.nexts = 0
	e.firedWheel = 0
	e.firedOver = 0
	e.pending = 0
	e.MaxDur = 0
}
