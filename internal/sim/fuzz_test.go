package sim

import (
	"fmt"
	"testing"
)

// FuzzEngineModel drives the engine and a reference model — a slice of
// logical events popped by linear (At, seq) minimum — through one
// operation stream and compares Now, Pending and the fire log after every
// op. The model knows nothing of levels, cursors or the overflow, so any
// divergence is an ordering, accounting or recycling bug in the wheel.
//
// Each op consumes three bytes: an opcode (mod 8) and two arguments. The
// delta encoding (a+1)<<(b%44) reaches every wheel level, the horizon and
// the overflow beyond it.
//
//	0  After(delta); with b's top bit set the callback arms a child
//	   one-shot when it fires (an arm from inside a firing event)
//	1  Schedule a free caller-owned event from a fixed pool
//	2  Cancel a pending one-shot
//	3  Step
//	4  Cancel a pending caller-owned event and Schedule it again at once
//	5  RunFor to a cap short of the next event, then arm before that event
//	6  Reset mid-stream (a%8 == 0), else RunFor(delta)
//	7  set MaxDur to now+delta (a even) or clear it (a odd)
func FuzzEngineModel(f *testing.F) {
	for _, seed := range wheelSeeds {
		f.Add(seed)
	}
	// The three seeds of the retired two-byte-op schedule/cancel/step
	// fuzzer, re-encoded.
	f.Add([]byte{0, 9, 0, 0, 9, 0, 3, 0, 0, 0, 4, 0, 2, 0, 0, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 3, 0, 0, 0, 2, 0})
	f.Add([]byte{0, 199, 0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 2, 1, 0, 0, 6, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0})
	// Cancel and re-arm across levels and the overflow, a capped RunFor
	// with an arm behind the next event, a MaxDur stop followed by an arm
	// behind the cursor, a child chain, and a mid-stream Reset.
	f.Add([]byte{1, 0, 5, 4, 0, 25, 4, 0, 35, 4, 0, 43, 4, 0, 2, 3, 0, 0})
	f.Add([]byte{0, 100, 20, 5, 3, 9, 5, 7, 0, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 3, 30, 7, 0, 10, 3, 0, 0, 0, 1, 4, 7, 1, 0, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 5, 130, 0, 5, 140, 3, 0, 0, 3, 0, 0, 6, 0, 0, 0, 1, 1, 1, 2, 43, 3, 0, 0})
	f.Fuzz(engineModel)
}

// wheelSeeds: a tick-like re-armed pattern, a multi-level burst, a
// cancel-heavy stream, and a horizon hopper.
var wheelSeeds = [][]byte{
	{1, 3, 22, 3, 0, 0, 3, 0, 0, 1, 3, 22, 3, 0, 0},
	{0, 10, 2, 0, 10, 12, 0, 10, 21, 0, 10, 32, 0, 10, 35, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0},
	{0, 1, 4, 0, 2, 4, 0, 3, 4, 2, 1, 0, 2, 0, 0, 3, 0, 0, 3, 0, 0},
	{1, 200, 33, 1, 100, 30, 3, 0, 0, 3, 0, 0, 1, 50, 35, 3, 0, 0},
}

// FuzzWheelHeapDiff replays, through the same model, the seeds and corpus
// committed under this name when the reference was a heap-only engine. It
// keeps the name so those regression inputs keep their test ids;
// FuzzEngineModel carries converted copies and is the target to fuzz.
func FuzzWheelHeapDiff(f *testing.F) {
	for _, seed := range wheelSeeds {
		f.Add(seed)
	}
	f.Fuzz(engineModel)
}

// mev is one logical event of the reference model.
type mev struct {
	at     Time
	seq    int    // arm order
	id     int    // fire-log identity
	owned  int    // pool index of a caller-owned event, -1 for a one-shot
	childD Cycles // when > 0 the one-shot arms a child this far out on firing
	child  *mev
	ev     *Event // the engine's handle for a pending one-shot
}

func engineModel(t *testing.T, ops []byte) {
	const pool = 4
	var (
		e        Engine
		now      Time
		maxDur   Time
		pending  []*mev
		seq, ids int
		got      []string
		want     []string
		ownedEv  [pool]*Event
		ownedCur [pool]*mev // the pool event's pending arming, nil when it is free
		ownedLog [pool]*mev // its latest arming, which is what its callback logs
	)
	logf := func(m *mev, at Time) string { return fmt.Sprintf("%d@%d", m.id, at) }
	arm := func(at Time, owned int, childD Cycles) *mev {
		m := &mev{at: at, seq: seq, id: ids, owned: owned, childD: childD}
		seq++
		ids++
		pending = append(pending, m)
		return m
	}
	drop := func(m *mev) {
		for i, p := range pending {
			if p == m {
				pending = append(pending[:i], pending[i+1:]...)
				return
			}
		}
		t.Fatalf("model lost event #%d", m.id)
	}
	// step fires the model's earliest event at or before limit.
	step := func(limit Time) bool {
		var min *mev
		for _, p := range pending {
			if min == nil || p.at < min.at || (p.at == min.at && p.seq < min.seq) {
				min = p
			}
		}
		if min == nil || min.at > limit {
			return false
		}
		drop(min)
		now = min.at
		want = append(want, logf(min, now))
		if min.owned >= 0 {
			ownedCur[min.owned] = nil
		}
		if min.childD > 0 {
			min.child = arm(now+Time(min.childD), -1, 0)
		}
		return true
	}
	stepLimit := func() Time {
		if maxDur != 0 {
			return maxDur
		}
		return maxTime
	}
	runFor := func(d Cycles) {
		deadline := now + Time(d)
		limit := deadline
		if maxDur != 0 && maxDur < limit {
			limit = maxDur
		}
		for step(limit) {
		}
		if maxDur != 0 && deadline > maxDur {
			deadline = maxDur
		}
		if now < deadline {
			now = deadline
		}
		e.RunFor(d)
	}
	var fire func(m *mev) func(Time)
	fire = func(m *mev) func(Time) {
		return func(at Time) {
			got = append(got, logf(m, at))
			m.ev = nil
			if m.childD > 0 {
				if m.child == nil {
					t.Fatalf("event #%d fired before the model fired it", m.id)
				}
				m.child.ev = e.After(m.childD, "child", fire(m.child))
			}
		}
	}
	oneShot := func(d Cycles, childD Cycles) {
		m := arm(now+Time(d), -1, childD)
		m.ev = e.After(d, "f", fire(m))
	}
	for k := range ownedEv {
		k := k
		ownedEv[k] = e.NewEvent("p", func(at Time) {
			got = append(got, logf(ownedLog[k], at))
		})
	}
	delta := func(a, b byte) Cycles { return (uint64(a) + 1) << (b % 44) }
	check := func(i int, what string) {
		if e.Now() != now {
			t.Fatalf("op %d (%s): Now = %d, model %d", i, what, e.Now(), now)
		}
		if e.Pending() != len(pending) {
			t.Fatalf("op %d (%s): Pending = %d, model %d", i, what, e.Pending(), len(pending))
		}
		for k, ev := range ownedEv {
			if ev.Pending() != (ownedCur[k] != nil) {
				t.Fatalf("op %d (%s): owned[%d].Pending = %v, model %v", i, what, k, ev.Pending(), ownedCur[k] != nil)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("op %d (%s): fired %d events, model %d\n got %v\nwant %v", i, what, len(got), len(want), got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("op %d (%s): fire %d is %s, model %s", i, what, j, got[j], want[j])
			}
		}
		got, want = got[:0], want[:0]
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i]%8, ops[i+1], ops[i+2]
		switch op {
		case 0:
			var childD Cycles
			if b >= 128 {
				childD = (uint64(a) + 1) * 37
			}
			oneShot(delta(a, b), childD)
		case 1:
			k := int(a) % pool
			if ownedCur[k] != nil {
				continue
			}
			d := delta(a, b)
			ownedCur[k] = arm(now+Time(d), k, 0)
			ownedLog[k] = ownedCur[k]
			e.ScheduleAfter(ownedEv[k], d)
		case 2:
			var cands []*mev
			for _, p := range pending {
				if p.owned < 0 {
					cands = append(cands, p)
				}
			}
			if len(cands) == 0 {
				continue
			}
			m := cands[int(a)%len(cands)]
			drop(m)
			e.Cancel(m.ev)
			m.ev = nil
		case 3:
			if sm, se := step(stepLimit()), e.Step(); sm != se {
				t.Fatalf("op %d: Step = %v, model %v", i/3, se, sm)
			}
		case 4:
			k := int(a) % pool
			if ownedCur[k] == nil {
				continue
			}
			drop(ownedCur[k])
			e.Cancel(ownedEv[k])
			if !ownedEv[k].Cancelled() || ownedEv[k].Pending() {
				t.Fatalf("op %d: cancelled owned[%d] reports Cancelled=%v Pending=%v",
					i/3, k, ownedEv[k].Cancelled(), ownedEv[k].Pending())
			}
			d := delta(a, b)
			ownedCur[k] = arm(now+Time(d), k, 0)
			ownedLog[k] = ownedCur[k]
			e.ScheduleAfter(ownedEv[k], d)
		case 5:
			var gap Time
			for _, p := range pending {
				if g := p.at - now; gap == 0 || g < gap {
					gap = g
				}
			}
			runFor(Cycles(gap) * Cycles(a%8) / 8)
			oneShot(Cycles(b), 0)
		case 6:
			if a%8 != 0 {
				runFor(delta(a, b))
				break
			}
			e.Reset()
			now, maxDur, pending = 0, 0, pending[:0]
			ownedCur = [pool]*mev{}
		case 7:
			maxDur = 0
			if a%2 == 0 {
				maxDur = now + Time(delta(a, b))
			}
			e.MaxDur = maxDur
		}
		check(i/3, fmt.Sprint("opcode ", op))
	}
	maxDur, e.MaxDur = 0, 0
	for step(maxTime) {
	}
	e.Run(nil)
	check(len(ops)/3, "drain")
}
