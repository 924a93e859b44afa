// Engine core: the event, the min-heap long tail, the freelist, and the
// dispatch loop. Package documentation — including how the pending set is
// split between the timer wheel and this heap — lives in doc.go.
package sim

// Time is a point in virtual time, in CPU clock cycles.
type Time uint64

// Cycles is a duration in CPU clock cycles.
type Cycles = uint64

// Event is a scheduled callback. Events are single-shot; recurring behavior
// is built by rescheduling from within the callback.
//
// Events returned by At and After are owned by the engine: once the
// callback has fired, the object is recycled for a later At/After and the
// old pointer must not be used again (drop or nil any reference to a fired
// event before scheduling new work). Events built with NewEvent are owned
// by the caller, are never recycled, and may be re-armed with Schedule —
// the shape for recurring timers that must not touch the allocator.
type Event struct {
	At   Time
	Fn   func(now Time)
	Name string // for traces and debugging

	seq       uint64
	queued    bool
	cancelled bool
	owned     bool // caller-owned (NewEvent): never recycled
	periodic  bool // NewPeriodicEvent hint: wheel-eligible out to the full horizon
	inWheel   bool // resident in the wheel rather than the heap (set at arm)
	wheelNext *Event
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e.queued && !e.cancelled }

// entry is one heap slot. The ordering key is stored inline so the 4-way
// child comparisons in sift-down stay within the slice instead of chasing
// an Event pointer per candidate.
type entry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before reports heap order: earlier time first, scheduling order within
// the same instant.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine owns the virtual clock and the pending event set.
// The zero value is ready to use.
type Engine struct {
	now        Time
	heap       []entry
	wheel      *wheel // lazily allocated on the first wheel-eligible arm
	free       []*Event
	nexts      uint64
	firedWheel uint64
	firedHeap  uint64
	live       int  // queued events not lazily cancelled
	MaxDur     Time // optional hard stop measured from time zero; 0 = none

	// noWheel forces every arm onto the min-heap. It exists for the
	// wheel-vs-heap differential fuzzer, which drives a hybrid engine
	// and a heap-only engine through the same operation stream and
	// requires identical fire order; it is never set in production.
	noWheel bool
}

// maxTime is the open-horizon dispatch limit.
const maxTime = Time(^uint64(0))

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.firedWheel + e.firedHeap }

// FiredWheel returns how many dispatched events took the timer-wheel
// fast path.
func (e *Engine) FiredWheel() uint64 { return e.firedWheel }

// FiredHeap returns how many dispatched events took the min-heap path.
func (e *Engine) FiredHeap() uint64 { return e.firedHeap }

// Pending returns the number of events currently queued to fire
// (lazily-cancelled events still in the heap do not count).
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality.
func (e *Engine) At(at Time, name string, fn func(now Time)) *Event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := e.alloc()
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
// with Schedule/ScheduleAfter; it may be re-armed after each firing (a
// recurring timer re-arms itself from inside fn) and is never recycled,
// so a long-lived periodic event costs one allocation for the machine's
// lifetime.
func (e *Engine) NewEvent(name string, fn func(now Time)) *Event {
	return &Event{Name: name, Fn: fn, owned: true}
}

// NewPeriodicEvent is NewEvent for strictly-periodic or frequently
// re-armed timers (per-CPU ticks, IPI/dispatch latencies, watchdog
// sweeps): the hint makes the event wheel-eligible for any deadline
// inside the wheel horizon, not just near ones, so a long-period timer
// still avoids the heap.
func (e *Engine) NewPeriodicEvent(name string, fn func(now Time)) *Event {
	return &Event{Name: name, Fn: fn, owned: true, periodic: true}
}

// Schedule arms a caller-owned event at absolute time at. The event must
// not be currently queued (a cancelled event stays queued until the heap
// skips past it) and must have been built with NewEvent.
func (e *Engine) Schedule(ev *Event, at Time) {
	if !ev.owned {
		panic("sim: Schedule of an engine-owned event (use At/After)")
	}
	if ev.queued {
		panic("sim: Schedule of an event still queued")
	}
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	ev.At = at
	ev.cancelled = false
	e.arm(ev, at)
}

// ScheduleAfter arms a caller-owned event d cycles from now.
func (e *Engine) ScheduleAfter(ev *Event, d Cycles) {
	e.Schedule(ev, e.now+Time(d))
}

// arm assigns the next sequence number and queues the event, routing it
// to the timer wheel when its deadline is in wheel range and to the heap
// otherwise. Routing depends only on deterministic state (cursor, clock,
// hint), so replays stay bit-identical.
func (e *Engine) arm(ev *Event, at Time) {
	ev.seq = e.nexts
	e.nexts++
	ev.queued = true
	e.live++
	ev.inWheel = e.wheelInsert(ev, at)
	if !ev.inWheel {
		e.push(entry{at: at, seq: ev.seq, ev: ev})
	}
}

// alloc takes an event from the freelist, or allocates when warm-up has
// not yet populated it.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled = false
		return ev
	}
	return new(Event)
}

// release returns a fired or cancel-skipped event to the freelist.
// Caller-owned events (which their owner may re-arm) are left alone.
func (e *Engine) release(ev *Event) {
	if ev.owned || ev.queued {
		return
	}
	ev.Fn = nil // do not pin the callback's captures until reuse
	e.free = append(e.free, ev)
}

// Cancel removes a pending event in O(1): the event is marked dead and
// skipped (and recycled) when it surfaces at the heap root. Cancelling an
// already-fired or already-cancelled event is a no-op — but note that a
// fired engine-owned event may already back a later At/After, so callers
// must drop their reference to an event once it has fired.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	if ev.queued {
		e.live--
	}
}

// next returns the live event with the smallest (At, seq) at or before
// limit, across the heap and the wheel, or nil. The heap root caps how
// far the wheel cursor may advance, so a heap event firing first can
// never strand the cursor past deadlines armed afterwards.
func (e *Engine) next(limit Time) *Event {
	var hev *Event
	for len(e.heap) > 0 {
		top := e.heap[0].ev
		if !top.cancelled {
			hev = top
			break
		}
		e.pop()
		e.release(top)
	}
	wlimit := limit
	if hev != nil && hev.At < wlimit {
		wlimit = hev.At
	}
	if wev := e.wheelEarliest(wlimit); wev != nil {
		if hev == nil || wev.At < hev.At || (wev.At == hev.At && wev.seq < hev.seq) {
			return wev
		}
	}
	if hev != nil && hev.At <= limit {
		return hev
	}
	return nil
}

// dispatch fires the next event at or before limit, reporting whether
// one fired.
func (e *Engine) dispatch(limit Time) bool {
	ev := e.next(limit)
	if ev == nil {
		return false
	}
	if ev.inWheel {
		e.popWheel(ev)
		e.firedWheel++
	} else {
		e.pop()
		e.firedHeap++
	}
	e.live--
	e.now = ev.At
	ev.Fn(e.now)
	e.release(ev)
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
// allocation — heap array, freelist, wheel rings — so one engine can run
// many simulations back to back without re-paying construction. Pending
// engine-owned events are recycled; caller-owned events are detached
// (their owners die with the simulation that armed them).
func (e *Engine) Reset() {
	for i := range e.heap {
		ev := e.heap[i].ev
		e.heap[i] = entry{}
		ev.queued = false
		ev.cancelled = false
		e.release(ev)
	}
	e.heap = e.heap[:0]
	e.wheelReset()
	// A popped event keeps its slot successor in wheelNext until it is next
	// armed on the wheel. On the freelist that stale link can name a
	// caller-owned event of the simulation that just ended, whose callback
	// holds all of it.
	for _, ev := range e.free {
		ev.wheelNext = nil
	}
	e.now = 0
	e.nexts = 0
	e.firedWheel = 0
	e.firedHeap = 0
	e.live = 0
	e.MaxDur = 0
}

// push appends the entry and restores the heap property upward. The moved
// entries are shifted as a hole rather than swapped pairwise.
func (e *Engine) push(en entry) {
	e.heap = append(e.heap, en)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !en.before(e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = en
}

// pop removes the root entry, restoring the heap property downward.
func (e *Engine) pop() {
	root := e.heap[0].ev
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = entry{}
	e.heap = e.heap[:n]
	root.queued = false
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.heap[c].before(e.heap[best]) {
				best = c
			}
		}
		if !e.heap[best].before(last) {
			break
		}
		e.heap[i] = e.heap[best]
		i = best
	}
	e.heap[i] = last
}
