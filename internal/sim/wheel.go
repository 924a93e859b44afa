package sim

import "math/bits"

// Hierarchical timer wheel: the engine's one pending-set structure. Arm,
// cancel and fire are O(1); firing order is exactly (At, seq).
//
// Geometry: wheelLevels levels over one ring of slots. A level-0 slot
// covers wheelGran0 cycles — coarse enough that the cursor crosses a
// typical inter-event gap in a couple of bitmap words, fine enough that a
// slot rarely holds more than a handful of deadlines — and keeps its
// residents sorted by (At, seq) so the head is always the slot's next
// firing. Level 0 has wheelSlots slots; each coarser level has
// coarseSlots, sized to its traffic (doc.go has the census), and its slot
// spans the whole finer level. An event whose deadline is further out
// than a level can express parks in a coarser level and cascades down one
// level at a time as the cursor crosses its window start. Power-of-two
// sizing makes every slot index a shift+mask and aligns each level's lap
// with the end of its bitmap words, so cursor scans never wrap mid-window.
// A deadline past the horizon parks in the top level's slot for its own
// time, which re-files it there each lap until it comes within range.
const (
	wheelShift  = 9 // log2 cycles per level-0 slot
	wheelBits   = 11
	wheelSlots  = 1 << wheelBits // level-0 slots
	wheelMask   = wheelSlots - 1
	coarseBits  = 7
	coarseSlots = 1 << coarseBits // slots of each coarser level
	wheelLevels = 3
	ringSlots   = wheelSlots + (wheelLevels-1)*coarseSlots
	ringWords   = ringSlots / 64

	// wheelGran0 is the level-0 slot granularity (512 cycles, ~1.3µs at
	// the default clock); wheelSpan0 is the level-0 ring span and the
	// level-1 slot granularity (~1M cycles, ~2.6ms).
	wheelGran0 = 1 << wheelShift
	wheelSpan0 = 1 << (wheelShift + wheelBits)
	// wheelGran2 is the level-2 slot granularity — equivalently the span
	// of the level-1 ring (~134M cycles, ~0.34s at the default clock).
	wheelGran2 = wheelSpan0 << coarseBits
	// wheelHorizon is the span of the level-2 ring (~17G cycles, ~43s):
	// the furthest deadline, measured from the cursor, one lap of the
	// wheel expresses.
	wheelHorizon = wheelGran2 << coarseBits
)

// Per-level geometry. Level l owns ring slots [levelBase[l],
// levelBase[l+1]) and bitmap words [levelBase[l]>>6, levelBase[l+1]>>6);
// its slot spans 1<<levelShift[l] cycles and its ring 1<<levelShift[l+1],
// so levelShift[wheelLevels] is log2 of the horizon. Every base is a
// multiple of 64, so a ring index names its bitmap word and bit directly.
var (
	levelBase  = [wheelLevels + 1]int{0, wheelSlots, wheelSlots + coarseSlots, ringSlots}
	levelShift = [wheelLevels + 1]uint{
		wheelShift,
		wheelShift + wheelBits,
		wheelShift + wheelBits + coarseBits,
		wheelShift + wheelBits + 2*coarseBits,
	}
	levelMask = [wheelLevels]int{wheelMask, coarseSlots - 1, coarseSlots - 1}
)

// slotIndex is the ring index of the level-l slot whose window holds at.
func slotIndex(l int, at Time) int {
	return levelBase[l] + int(at>>levelShift[l])&levelMask[l]
}

// slot heads one intrusive doubly-linked list of events (chained through
// Event.wheelNext/wheelPrev), so any resident unlinks in O(1). It is one
// pointer, in the manner of the kernel's hlist_head: the ring is a hash
// table of mostly-empty lists, and a second pointer per slot would double
// it. The tail is reached through the head instead — a head's wheelPrev is
// its slot's tail (itself when alone), every other resident's its
// predecessor, and the tail's wheelNext is nil — so appending stays O(1).
// Level-0 lists are kept sorted by (At, seq); upper-level lists are only
// ever drained whole, so their order is arrival order.
type slot struct {
	head *Event
}

// pushBack appends ev, whose links are nil.
func (s *slot) pushBack(ev *Event) {
	h := s.head
	if h == nil {
		s.head = ev
		ev.wheelPrev = ev
		return
	}
	t := h.wheelPrev
	t.wheelNext = ev
	ev.wheelPrev = t
	h.wheelPrev = ev
}

// before reports firing order: earlier time first, arm order within the
// same instant.
func (a *Event) before(b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// wheel is the three-level ring. cur is the cursor, always on a level-0
// slot boundary and never ahead of the clock: every resident satisfies
// At >= cur, and cur only advances as far as a caller-supplied limit
// justifies. The occupancy bitmap (one bit per ring slot, exact: a set
// bit is a non-empty slot) lets scans skip 64 empty slots per word, and
// per-level resident counts let them skip levels entirely.
type wheel struct {
	cur   Time
	count int // residents
	occ   [wheelLevels]int

	// hit is the confirmed earliest ring resident — the head of a level-0
	// slot — or nil when unknown. Dispatch asks once per event but the
	// answer only changes when the wheel does: firing or cancelling it
	// promotes its slot successor, an earlier arm replaces it.
	hit *Event

	bits  [ringWords]uint64
	slots [ringSlots]slot
}

// insert links a queued, unlinked event into the finest level that can
// express its deadline relative to the cursor. A deadline a horizon or more
// out takes the top level's slot for its own time: each lap the cursor
// opens that slot and the cascade files it here again, one level finer
// once it has come within the horizon. It serves fresh arms and cascades
// alike, so it assumes nothing about ev's seq.
func (w *wheel) insert(ev *Event) {
	at := ev.At
	if at < w.cur {
		panic("sim: deadline behind the wheel's cursor")
	}
	delta := at - w.cur
	l := 0
	for l < wheelLevels-1 && delta>>levelShift[l+1] != 0 {
		l++
	}
	idx := slotIndex(l, at)
	s := &w.slots[idx]
	ev.level = uint8(l)
	w.count++
	w.occ[l]++
	w.bits[idx>>6] |= 1 << (idx & 63)
	if l > 0 {
		s.pushBack(ev)
		return
	}
	if w.hit != nil && ev.before(w.hit) {
		w.hit = ev
	}
	// A level-0 slot fires from the head, so it stays sorted. A fresh
	// arm goes behind the tail and a new earliest in front of the head;
	// cascaded or re-filed events and same-slot earlier deadlines walk
	// back from the tail to the resident they go behind, at the head at
	// the latest.
	h := s.head
	if h == nil || !ev.before(h.wheelPrev) {
		s.pushBack(ev)
		return
	}
	if ev.before(h) {
		ev.wheelNext = h
		ev.wheelPrev = h.wheelPrev
		h.wheelPrev = ev
		s.head = ev
		return
	}
	p := h.wheelPrev.wheelPrev
	for ev.before(p) {
		p = p.wheelPrev
	}
	n := p.wheelNext
	p.wheelNext = ev
	ev.wheelPrev = p
	ev.wheelNext = n
	n.wheelPrev = ev
}

// remove unlinks a resident from its slot, leaving its links nil and every
// summary — the head's tail link, bitmap, counts, hit — exact.
func (w *wheel) remove(ev *Event) {
	next, prev := ev.wheelNext, ev.wheelPrev
	ev.wheelNext, ev.wheelPrev = nil, nil
	l := int(ev.level)
	idx := slotIndex(l, ev.At)
	s := &w.slots[idx]
	if ev == s.head {
		// prev is the tail, which the successor, if any, now links to.
		s.head = next
		if next != nil {
			next.wheelPrev = prev
		}
	} else {
		prev.wheelNext = next
		if next != nil {
			next.wheelPrev = prev
		} else {
			s.head.wheelPrev = prev // ev was the tail
		}
	}
	w.count--
	w.occ[l]--
	if s.head == nil {
		w.bits[idx>>6] &^= 1 << (idx & 63)
	}
	if ev == w.hit {
		// Its slot successor is the next earliest (see dispatch); with
		// none, the next dispatch rescans.
		w.hit = next
	}
}

// cascade empties one level-l slot (ring index idx) whose window start the
// cursor has reached and re-inserts each resident relative to the cursor
// as it stands now: a finer level, or this slot again for one more lap.
func (w *wheel) cascade(l, idx int) {
	w.bits[idx>>6] &^= 1 << (idx & 63)
	s := &w.slots[idx]
	ev := s.head
	*s = slot{}
	for ev != nil {
		next := ev.wheelNext
		ev.wheelNext, ev.wheelPrev = nil, nil
		w.count--
		w.occ[l]--
		w.insert(ev)
		ev = next
	}
}

// occupied reports whether ring slot idx holds a resident.
func (w *wheel) occupied(idx int) bool {
	return w.bits[idx>>6]&(1<<(idx&63)) != 0
}

// open stands at window boundary t (a multiple of wheelSpan0) and
// cascades, coarsest first, the slot of every upper level whose window
// opens there: level 1's at every boundary, level 2's where t is also a
// multiple of wheelGran2.
func (w *wheel) open(t Time) {
	w.cur = t
	for l := wheelLevels - 1; l > 0; l-- {
		if t&(1<<levelShift[l]-1) != 0 {
			continue
		}
		if idx := slotIndex(l, t); w.occupied(idx) {
			w.cascade(l, idx)
		}
	}
}

// scan finds the first occupied slot of level l at ring index >= from
// (one of level l's own), never wrapping — a level's lap boundaries are
// aligned with the end of its bitmap words, so a wrapped slot always
// belongs to a window past the next lap boundary and is the next lap's
// business.
func (w *wheel) scan(l, from int) (int, bool) {
	if word := w.bits[from>>6] >> (from & 63); word != 0 {
		return from + bits.TrailingZeros64(word), true
	}
	next := from>>6 + 1
	for i, word := range w.bits[next : levelBase[l+1]>>6] {
		if word != 0 {
			return (next+i)<<6 + bits.TrailingZeros64(word), true
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
		if head := w.slots[k].head; head.At <= limit {
			return head
		}
		// The slot straddles the cap: its earliest deadline is past it.
	}
	return nil
}

// nextWindow finds the start of the next window at or after b (a level-0
// span boundary) whose opening can surface events, or reports false when
// that start would lie past limit. Only the finest occupied upper level l
// needs scanning: a coarser level's windows open only at l's lap
// boundaries, which the loop stops on and checks first. Called only with
// level 0 empty and count > 0, so it terminates: every occupied slot's
// window opens within one lap of b — for a deadline laps out, that
// opening re-files it.
func (w *wheel) nextWindow(b, limit Time) (Time, bool) {
	l := 1
	for w.occ[l] == 0 {
		l++
	}
	// Start on l's first window at or after b: one that began earlier
	// opened while the cursor stood at or before it.
	gran := Time(1) << levelShift[l]
	lap := Time(1) << levelShift[l+1]
	b = (b + gran - 1) &^ (gran - 1)
	for b <= limit {
		for c := wheelLevels - 1; c > l; c-- {
			if b&(1<<levelShift[c]-1) == 0 && w.occupied(slotIndex(c, b)) {
				// A coarser window opens exactly here; it must cascade
				// before any finer window inside it is considered.
				return b, true
			}
		}
		from := slotIndex(l, b)
		if k, ok := w.scan(l, from); ok {
			t := b + Time(k-from)<<levelShift[l]
			return t, t <= limit
		}
		// Level l is empty for the rest of this lap: cross into the next,
		// where the coarser-slot check above comes first.
		b = (b &^ (lap - 1)) + lap
	}
	return 0, false
}

// earliest is the scan behind dispatch's remembered answer, run when hit
// is nil: it returns the earliest resident at or before limit, leaving it
// in hit, or nil. It advances the cursor — cascading windows open along
// the way — but never past limit's slot, and a Step refused at limit
// moves the clock there, so the cursor never leads the clock.
func (w *wheel) earliest(limit Time) *Event {
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

// reset drops every resident — recycling engine-owned ones — and rewinds
// the cursor, walking only occupied slots via the bitmap so the cost
// scales with residency, not ring size.
func (w *wheel) reset(e *Engine) {
	if w.count != 0 {
		for wi := range w.bits {
			word := w.bits[wi]
			w.bits[wi] = 0
			for word != 0 {
				bit := bits.TrailingZeros64(word)
				word &^= 1 << bit
				s := &w.slots[wi<<6+bit]
				for ev := s.head; ev != nil; {
					next := ev.wheelNext
					ev.wheelNext, ev.wheelPrev = nil, nil
					ev.queued = false
					e.recycle(ev)
					ev = next
				}
				*s = slot{}
			}
		}
		w.occ = [wheelLevels]int{}
		w.count = 0
	}
	w.cur = 0
	w.hit = nil
}
