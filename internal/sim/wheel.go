package sim

import "math/bits"

// Hierarchical timer wheel: the engine's one pending-set structure. Arm,
// cancel and fire are O(1); firing order is exactly (At, seq).
//
// Geometry: wheelLevels levels of wheelSlots slots each. A level-0 slot
// covers wheelGran0 cycles — coarse enough that the cursor crosses a
// typical inter-event gap in a couple of bitmap words, fine enough that a
// slot rarely holds more than a handful of deadlines — and keeps its
// residents sorted by (At, seq) so the head is always the slot's next
// firing. Each coarser level multiplies the slot span by wheelSlots; an
// event whose deadline is further out than a level can express parks in a
// coarser level and cascades down one level at a time as the cursor
// crosses its window start. Power-of-two sizing makes every slot index a
// shift+mask and aligns window boundaries with bitmap words, so cursor
// scans never wrap mid-window.
const (
	wheelShift  = 9 // log2 cycles per level-0 slot
	wheelBits   = 11
	wheelSlots  = 1 << wheelBits // 2048 slots per level
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64

	// wheelGran0 is the level-0 slot granularity (512 cycles, ~1.3µs at
	// the default clock); wheelSpan0 is the level-0 ring span and the
	// level-1 slot granularity (~1M cycles, ~2.6ms).
	wheelGran0 = 1 << wheelShift
	wheelSpan0 = 1 << (wheelShift + wheelBits)
	// wheelGran2 is the level-2 slot granularity — equivalently the span
	// of the level-1 ring (~2.1G cycles, ~5.4s at the default clock).
	wheelGran2 = 1 << (wheelShift + 2*wheelBits)
	// wheelHorizon is the span of the level-2 ring (~4.4T cycles): the
	// furthest deadline, measured from the cursor, the wheel can express.
	wheelHorizon = 1 << (wheelShift + 3*wheelBits)

	// levelOver is Event.level for a resident of the overflow list.
	levelOver = wheelLevels
)

// slot heads one intrusive doubly-linked list of events (chained through
// Event.wheelNext/wheelPrev), so any resident unlinks in O(1). Level-0
// lists are kept sorted by (At, seq); upper-level and overflow lists are
// only ever drained whole, so their order is arrival order.
type slot struct {
	head, tail *Event
}

// pushBack appends ev, whose links are nil.
func (s *slot) pushBack(ev *Event) {
	if t := s.tail; t != nil {
		t.wheelNext = ev
		ev.wheelPrev = t
	} else {
		s.head = ev
	}
	s.tail = ev
}

// before reports firing order: earlier time first, arm order within the
// same instant.
func (a *Event) before(b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// wheel is the three-level ring plus its overflow. cur is the cursor,
// always on a level-0 slot boundary: every ring resident satisfies
// At >= cur, and cur only advances as far as a caller-supplied limit
// justifies. Occupancy bitmaps (one bit per slot, exact: a set bit is a
// non-empty slot) let scans skip 64 empty slots per word, and per-level
// resident counts let them skip levels entirely.
type wheel struct {
	cur   Time
	count int // ring residents (the overflow is not counted)
	occ   [wheelLevels]int

	// hit is the confirmed earliest ring resident — the head of a level-0
	// slot — or nil when unknown. Dispatch asks once per event but the
	// answer only changes when the wheel does: firing or cancelling it
	// promotes its slot successor, an earlier arm replaces it.
	hit *Event

	// over holds what the rings cannot express at arm time: a deadline at
	// or past cur+wheelHorizon, or one behind the cursor (the clock can
	// trail it after a limit-capped advance). Unsorted; overMin is its
	// earliest by (At, seq), nil exactly when the list is empty.
	over    slot
	overMin *Event

	bits  [wheelLevels][wheelWords]uint64
	slots [wheelLevels][wheelSlots]slot
}

// insert links a queued, unlinked event wherever its deadline belongs
// relative to the cursor: the finest ring level that can express it, or
// the overflow. It serves fresh arms, cascades and overflow re-filing
// alike, so it assumes nothing about ev's seq.
func (w *wheel) insert(ev *Event) {
	at := ev.At
	delta := at - w.cur // wraps past the horizon when at is behind the cursor
	if delta >= wheelHorizon {
		ev.level = levelOver
		w.over.pushBack(ev)
		if w.overMin == nil || ev.before(w.overMin) {
			w.overMin = ev
		}
		return
	}
	l := 0
	for delta>>(wheelShift+wheelBits*(l+1)) != 0 {
		l++
	}
	idx := int(at>>(wheelShift+wheelBits*l)) & wheelMask
	s := &w.slots[l][idx]
	ev.level = uint8(l)
	w.count++
	w.occ[l]++
	w.bits[l][idx>>6] |= 1 << (idx & 63)
	if l > 0 {
		s.pushBack(ev)
		return
	}
	if w.hit != nil && ev.before(w.hit) {
		w.hit = ev
	}
	// A level-0 slot fires from the head, so it stays sorted. p is the
	// resident ev goes behind: a fresh arm's is the tail, a new earliest
	// has none, and cascaded or re-filed events and same-slot earlier
	// deadlines walk back from the tail to theirs.
	p := s.tail
	if s.head != nil && ev.before(s.head) {
		p = nil
	}
	for p != nil && ev.before(p) {
		p = p.wheelPrev
	}
	if p == s.tail {
		s.pushBack(ev)
		return
	}
	n := s.head
	if p != nil {
		n = p.wheelNext
		p.wheelNext = ev
	} else {
		s.head = ev
	}
	ev.wheelPrev = p
	ev.wheelNext = n
	n.wheelPrev = ev
}

// remove unlinks a resident from its slot or from the overflow, leaving
// its links nil and every summary — tail, bitmap, counts, hit, overMin —
// exact.
func (w *wheel) remove(ev *Event) {
	next, prev := ev.wheelNext, ev.wheelPrev
	ev.wheelNext, ev.wheelPrev = nil, nil
	l := int(ev.level)
	s := &w.over
	idx := 0
	if l < wheelLevels {
		idx = int(ev.At>>(wheelShift+wheelBits*l)) & wheelMask
		s = &w.slots[l][idx]
	}
	if prev != nil {
		prev.wheelNext = next
	} else {
		s.head = next
	}
	if next != nil {
		next.wheelPrev = prev
	} else {
		s.tail = prev
	}
	if l == levelOver {
		if ev == w.overMin {
			w.overMin = s.head
			for o := s.head; o != nil; o = o.wheelNext {
				if o.before(w.overMin) {
					w.overMin = o
				}
			}
		}
		return
	}
	w.count--
	w.occ[l]--
	if s.head == nil {
		w.bits[l][idx>>6] &^= 1 << (idx & 63)
	}
	if ev == w.hit {
		// Its slot successor is the next earliest (see dispatch); with
		// none, the next dispatch rescans.
		w.hit = next
	}
}

// drain empties a level-l slot (or, with l == levelOver, the overflow)
// and re-inserts each resident relative to the cursor as it stands now.
func (w *wheel) drain(s *slot, l int) {
	ev := s.head
	*s = slot{}
	for ev != nil {
		next := ev.wheelNext
		ev.wheelNext, ev.wheelPrev = nil, nil
		if l < wheelLevels {
			w.count--
			w.occ[l]--
		}
		w.insert(ev)
		ev = next
	}
}

// cascade drains one upper-level slot whose window start the cursor has
// reached, re-inserting each resident at a finer level.
func (w *wheel) cascade(l, idx int) {
	w.bits[l][idx>>6] &^= 1 << (idx & 63)
	w.drain(&w.slots[l][idx], l)
}

// open stands at window boundary t (a multiple of wheelSpan0) and
// cascades the level-1 — and, at coarser alignments, level-2 — slots
// whose windows open there.
func (w *wheel) open(t Time) {
	w.cur = t
	if t&(wheelGran2-1) == 0 {
		idx := int(t>>(wheelShift+2*wheelBits)) & wheelMask
		if w.bits[2][idx>>6]&(1<<(idx&63)) != 0 {
			w.cascade(2, idx)
		}
	}
	idx := int(t>>(wheelShift+wheelBits)) & wheelMask
	if w.bits[1][idx>>6]&(1<<(idx&63)) != 0 {
		w.cascade(1, idx)
	}
}

// scan finds the first occupied slot of level l at ring index >= from,
// never wrapping — window boundaries are aligned with the bitmap end, so
// a wrapped slot always belongs to a window past the next boundary and
// is the next lap's business.
func (w *wheel) scan(l, from int) (int, bool) {
	if word := w.bits[l][from>>6] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word), true
	}
	for i := from>>6 + 1; i < wheelWords; i++ {
		if word := w.bits[l][i]; word != 0 {
			return i<<6 + bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}

// scanL0 searches level 0 from the cursor to the end of its current
// window (exclusive boundary b), never surfacing an event past limit and
// never moving the cursor past limit's slot. On a hit the cursor stands
// on the event's slot; on a miss it stands where the scan stopped, so the
// next scan resumes without rework.
func (w *wheel) scanL0(b, limit Time) *Event {
	if w.cur > limit {
		return nil
	}
	sidx := int(w.cur>>wheelShift) & wheelMask
	// With nothing left in this window the cursor holds on its last
	// slot: reaching b is the open path's job, which must cascade b's
	// window before the cursor may stand on it.
	to := b - wheelGran0
	k, ok := w.scan(0, sidx)
	if ok {
		to = w.cur + Time(k-sidx)<<wheelShift
	}
	if capped := limit &^ (wheelGran0 - 1); to > capped {
		w.cur = capped
		return nil
	}
	w.cur = to
	if ok {
		if head := w.slots[0][k].head; head.At <= limit {
			return head
		}
		// The slot straddles the cap: its earliest deadline is past it.
	}
	return nil
}

// nextWindow finds the start of the next window at or after b (a level-0
// span boundary) whose opening can surface events: the first occupied
// level-1 slot of the current lap, or an occupied level-2 slot at a lap
// boundary. Reports false when that start would lie past limit. Called
// only with level 0 empty and count > 0, so it terminates: every
// resident event is within one lap-wrap of its level's current lap.
func (w *wheel) nextWindow(b, limit Time) (Time, bool) {
	for {
		if b > limit {
			return 0, false
		}
		if b&(wheelGran2-1) == 0 {
			idx2 := int(b>>(wheelShift+2*wheelBits)) & wheelMask
			if w.bits[2][idx2>>6]&(1<<(idx2&63)) != 0 {
				// A level-2 window opens exactly here; it must cascade
				// before any finer window inside it is considered.
				return b, true
			}
			if w.occ[1] == 0 {
				if k, ok := w.scan(2, idx2); ok {
					t := b + Time(k-idx2)<<(wheelShift+2*wheelBits)
					return t, t <= limit
				}
				// Rest of the level-2 lap is empty: wrap to the next.
				b = (b &^ Time(wheelHorizon-1)) + wheelHorizon
				continue
			}
		}
		idx := int(b>>(wheelShift+wheelBits)) & wheelMask
		if j, ok := w.scan(1, idx); ok {
			t := b + Time(j-idx)<<(wheelShift+wheelBits)
			return t, t <= limit
		}
		// Level 1 empty for the rest of this lap: cross into the next
		// lap, where the level-2 slot check above takes over.
		b = (b &^ Time(wheelGran2-1)) + wheelGran2
	}
}

// earliestRing returns the earliest ring resident at or before limit,
// leaving it in hit. It advances the cursor — cascading windows open
// along the way — but never past limit's slot: RunFor leaves the clock on
// its deadline, so no arm after it can fall behind the cursor, and only a
// Step refused at the MaxDur horizon leaves the cursor ahead of the clock.
func (w *wheel) earliestRing(limit Time) *Event {
	if w.hit != nil {
		if w.hit.At <= limit {
			return w.hit
		}
		return nil
	}
	for w.count > 0 {
		b := (w.cur &^ Time(wheelSpan0-1)) + wheelSpan0
		if w.occ[0] > 0 {
			if ev := w.scanL0(b, limit); ev != nil {
				w.hit = ev
				return ev
			}
			if b > limit {
				break
			}
			w.open(b)
			continue
		}
		t, ok := w.nextWindow(b, limit)
		if !ok {
			break
		}
		w.open(t)
	}
	return nil
}

// earliest is the scan behind dispatch's remembered answer: the next event
// to fire at or before limit, from the rings or the overflow, or nil. An
// overflow whose earliest deadline has come into the rings' range is
// re-filed first; what stays behind is either behind the cursor, hence
// before every ring resident, or at least a horizon ahead of it, hence
// after — and its earliest caps the cursor's advance, so the clock never
// jumps to an overflow deadline with the cursor already past it.
func (w *wheel) earliest(now, limit Time) *Event {
	m := w.overMin
	if m == nil {
		return w.earliestRing(limit)
	}
	if w.count == 0 {
		w.cur = now &^ (wheelGran0 - 1)
	}
	if m.At-w.cur < wheelHorizon {
		w.overMin = nil
		w.drain(&w.over, levelOver)
		if m = w.overMin; m == nil {
			return w.earliestRing(limit)
		}
	}
	ringLimit := limit
	if m.At < ringLimit {
		ringLimit = m.At
	}
	if ev := w.earliestRing(ringLimit); ev != nil && ev.before(m) {
		return ev
	}
	if m.At <= limit {
		return m
	}
	return nil
}

// reset drops every resident — recycling engine-owned ones — and rewinds
// the cursor, walking only occupied slots via the bitmaps so the cost
// scales with residency, not ring size.
func (w *wheel) reset(e *Engine) {
	drop := func(s *slot) {
		for ev := s.head; ev != nil; {
			next := ev.wheelNext
			ev.wheelNext, ev.wheelPrev = nil, nil
			ev.queued = false
			ev.cancelled = false
			e.recycle(ev)
			ev = next
		}
		*s = slot{}
	}
	for l := 0; l < wheelLevels; l++ {
		if w.occ[l] == 0 {
			continue
		}
		for wi := range w.bits[l] {
			word := w.bits[l][wi]
			w.bits[l][wi] = 0
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &^= 1 << bit
				drop(&w.slots[l][wi<<6+bit])
			}
		}
		w.occ[l] = 0
	}
	drop(&w.over)
	w.overMin = nil
	w.count = 0
	w.cur = 0
	w.hit = nil
}
