package o1

import (
	"testing"

	"elsc/internal/sched"
	"elsc/internal/task"
)

// sleeper returns a runnable task whose sleep_avg sits in the middle of
// the given bonus bucket (0..10, i.e. bonus -5..+5; 11 pins the ceiling).
func sleeper(env *sched.Env, id, prio, counter int, bucket uint64) *task.Task {
	tk := mkTask(env, id, prio, counter)
	tk.CreditSleep((2*bucket+1)*env.Cost.MaxSleepAvg/22, env.Cost.MaxSleepAvg)
	return tk
}

func TestBonusMapping(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	hog := mkTask(env, 1, 20, 10) // sleep_avg 0
	if got := s.bonusOf(hog); got != -maxBonus {
		t.Fatalf("zero sleep_avg bonus = %d, want %d", got, -maxBonus)
	}
	inter := sleeper(env, 2, 20, 10, 11)
	if got := s.bonusOf(inter); got != maxBonus {
		t.Fatalf("full sleep_avg bonus = %d, want %d", got, maxBonus)
	}
	mid := sleeper(env, 3, 20, 10, 5)
	if got := s.bonusOf(mid); got != 0 {
		t.Fatalf("midpoint sleep_avg bonus = %d, want 0", got)
	}
	rt := task.NewRT(4, "rt", task.FIFO, 10, env.Epoch)
	rt.CreditSleep(env.Cost.MaxSleepAvg, env.Cost.MaxSleepAvg)
	if got := s.bonusOf(rt); got != 0 {
		t.Fatalf("real-time bonus = %d, want 0 (rt levels never move)", got)
	}
	off := NewWithConfig(env, Config{InteractivityOff: true})
	if got := off.bonusOf(inter); got != 0 {
		t.Fatalf("InteractivityOff bonus = %d, want 0", got)
	}
}

func TestEffectiveLevelClampedToOtherRange(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	top := sleeper(env, 1, task.MaxPriority, 10, 11) // +5 onto prio 40
	if got := s.levelFor(top); got != rtLevels {
		t.Fatalf("prio 40 with +5 bonus at level %d, want %d (never into rt levels)", got, rtLevels)
	}
	bottom := mkTask(env, 2, task.MinPriority, 10) // -5 onto prio 1
	if got := s.levelFor(bottom); got != numLevels-1 {
		t.Fatalf("prio 1 with -5 bonus at level %d, want %d", got, numLevels-1)
	}
}

// TestInteractiveWakeWithSpentQuantumEntersActive pins the central fix:
// an interactive task waking with an exhausted counter is recharged into
// the active array, while a hog-profile task still parks in expired.
func TestInteractiveWakeWithSpentQuantumEntersActive(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	inter := sleeper(env, 1, 20, 0, 11)
	s.AddToRunqueue(inter)
	if s.rqs[0].active().Len() != 1 || s.rqs[0].expired().Len() != 0 {
		t.Fatalf("interactive spent-quantum wake: active=%d expired=%d, want 1/0",
			s.rqs[0].active().Len(), s.rqs[0].expired().Len())
	}
	if got := inter.Counter(env.Epoch); got != inter.Priority {
		t.Fatalf("recharged counter = %d, want %d", got, inter.Priority)
	}
	if s.InteractiveRequeues() != 1 {
		t.Fatalf("InteractiveRequeues = %d, want 1", s.InteractiveRequeues())
	}
	hog := mkTask(env, 2, 20, 0)
	s.AddToRunqueue(hog)
	if s.rqs[0].expired().Len() != 1 {
		t.Fatalf("hog spent-quantum wake: expired=%d, want 1", s.rqs[0].expired().Len())
	}
}

// TestExpiryRequeuesInteractiveIntoActive drives the Schedule path: a
// quantum-expired interactive task re-enters the active array (and so
// beats a worse-level hog to the next pick), where the InteractivityOff
// ablation parks it behind the array swap.
func TestExpiryRequeuesInteractiveIntoActive(t *testing.T) {
	for _, off := range []bool{false, true} {
		env := newEnv(1, 2)
		s := NewWithConfig(env, Config{InteractivityOff: off})
		hog := mkTask(env, 1, 20, 10)
		s.AddToRunqueue(hog)
		probe := sleeper(env, 2, 20, 0, 11) // just expired its quantum
		probe.EverRan = true
		probe.Processor = 0
		res := s.Schedule(0, probe) // kernel: prev runnable, counter 0
		if off {
			if res.Next != hog {
				t.Fatalf("ablation: picked %v, want the hog (probe parked in expired)", res.Next)
			}
		} else if res.Next != probe {
			t.Fatalf("interactivity on: picked %v, want the requeued probe", res.Next)
		}
	}
}

// TestReinsertBoundedByStarvationClock: once the expired array has
// starved past starvationLimit, interactive tasks expire normally so the
// forced swap can restore fairness — hogs always make progress.
func TestReinsertBoundedByStarvationClock(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	starved := mkTask(env, 1, 20, 0)
	s.AddToRunqueue(starved) // hog profile: parks in expired
	if s.rqs[0].expired().Len() != 1 {
		t.Fatalf("setup: expired=%d, want 1", s.rqs[0].expired().Len())
	}
	s.rqs[0].schedSeq = s.rqs[0].expiredSince + starvationLimit // clock at the limit
	inter := sleeper(env, 2, 20, 0, 11)
	s.AddToRunqueue(inter)
	if s.rqs[0].expired().Len() != 2 {
		t.Fatalf("starving expired array: interactive wake filed active (expired=%d), want bounded to expired",
			s.rqs[0].expired().Len())
	}
	s.rqs[0].schedSeq = s.rqs[0].expiredSince // fresh clock: bound lifted
	inter2 := sleeper(env, 3, 20, 0, 11)
	s.AddToRunqueue(inter2)
	if s.rqs[0].active().Len() != 1 {
		t.Fatalf("fresh clock: active=%d, want the interactive re-insertion", s.rqs[0].active().Len())
	}
}

// TestTickPreemptBetterLevel: a queued task whose bonus-laden level
// beats the running task's triggers a tick preemption (reported as a
// plain preemption, not a rotation), so a stale wake-time tie cannot
// cost a sleeper the hog's whole quantum. An unpickable straggler at a
// better level must not buy an interrupt every tick.
func TestTickPreemptBetterLevel(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	inter := sleeper(env, 1, 20, 10, 11)
	s.AddToRunqueue(inter)
	hog := mkTask(env, 2, 20, 10) // running: dequeued, bonus -5
	preempt, rotation := s.TickPreempt(0, hog)
	if !preempt || rotation {
		t.Fatalf("better active level queued: got preempt=%v rotation=%v, want true/false", preempt, rotation)
	}
	inter.HasCPU = true // claimed by another CPU mid-window: unpickable
	inter.Processor = 1
	if preempt, _ := s.TickPreempt(0, hog); preempt {
		t.Fatal("unpickable straggler at a better level must not preempt")
	}
	inter.HasCPU = false
	off := NewWithConfig(env, Config{InteractivityOff: true})
	off.AddToRunqueue(sleeper(env, 3, 20, 10, 11))
	if preempt, _ := off.TickPreempt(0, hog); preempt {
		t.Fatal("ablation: tick preemption must stay off")
	}
}

// TestTickPreemptGranularityRoundRobin: equal-level interactive tasks
// round-robin every granularityTicks — the rotated task goes to the tail
// of its level and the waiting peer is picked next.
func TestTickPreemptGranularityRoundRobin(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	a := sleeper(env, 1, 20, 4, 11)
	b := sleeper(env, 2, 20, 4, 11)
	s.AddToRunqueue(b) // b waits at a's level
	if preempt, rotation := s.TickPreempt(0, a); !preempt || !rotation {
		t.Fatal("same-level peer queued at a granularity boundary: want a rotation")
	}
	res := s.Schedule(0, a) // kernel preempts a; a still has quantum
	if res.Next != b {
		t.Fatalf("picked %v after rotation, want the waiting peer", res.Next)
	}
	if !a.OnRunqueue() {
		t.Fatal("rotated task fell off the queue")
	}
	// With an odd counter (not a granularity boundary) nothing rotates.
	c := sleeper(env, 3, 20, 3, 11)
	if preempt, _ := s.TickPreempt(0, c); preempt {
		t.Fatal("rotation must only fire on granularity boundaries")
	}
}

func TestPlaceWakeFilesOnGivenCPU(t *testing.T) {
	env := newNumaEnv(4, 2, 4)
	s := New(env)
	tk := homedTask(env, 1, 0)
	if !s.PlaceWake(tk, 3) {
		t.Fatal("PlaceWake declined a valid idle-CPU hint")
	}
	if s.bal.Len[3] != 1 || s.bal.Len[0] != 0 {
		t.Fatalf("task filed on queue %d, want 3", tk.QIndex)
	}
	if s.PlaceWake(tk, 2) {
		t.Fatal("PlaceWake must decline a task already on a queue")
	}
}

func TestPlaceWakeDeclines(t *testing.T) {
	env := newNumaEnv(4, 2, 4)
	for _, cfg := range []Config{{WakeIdleOff: true}, {TopologyBlind: true}} {
		s := NewWithConfig(env, cfg)
		tk := homedTask(env, 1, 0)
		if s.PlaceWake(tk, 3) {
			t.Fatalf("PlaceWake accepted under %+v, want declined", cfg)
		}
		if tk.OnRunqueue() {
			t.Fatal("declined PlaceWake must not enqueue")
		}
	}
	s := New(env)
	pinned := homedTask(env, 2, 0)
	pinned.CPUsAllowed = 1 << 0
	if s.PlaceWake(pinned, 3) {
		t.Fatal("PlaceWake must respect the affinity mask")
	}
}

func TestPreemptsCurrUsesEffectiveLevels(t *testing.T) {
	env := newEnv(1, 2)
	s := New(env)
	inter := sleeper(env, 1, 20, 10, 11)
	hog := mkTask(env, 2, 20, 10)
	if !s.PreemptsCurr(inter, hog) {
		t.Fatal("interactive task at equal static priority must preempt the hog")
	}
	if s.PreemptsCurr(hog, inter) {
		t.Fatal("hog must not preempt the interactive task")
	}
	off := NewWithConfig(env, Config{InteractivityOff: true})
	if off.PreemptsCurr(inter, hog) {
		t.Fatal("ablation: equal static priorities must tie")
	}
	rt := task.NewRT(3, "rt", task.FIFO, 0, env.Epoch)
	if !s.PreemptsCurr(rt, inter) || s.PreemptsCurr(inter, rt) {
		t.Fatal("real-time ordering must survive the bonus mapping")
	}
}

func TestBonusLevelCountersTrackEnqueues(t *testing.T) {
	env := newEnv(1, 3)
	s := New(env)
	s.AddToRunqueue(mkTask(env, 1, 20, 10))      // -5
	s.AddToRunqueue(sleeper(env, 2, 20, 10, 11)) // +5
	s.AddToRunqueue(sleeper(env, 3, 20, 10, 5))  // 0
	levels := s.BonusLevels()
	if len(levels) != BonusSpan {
		t.Fatalf("BonusLevels len = %d, want %d", len(levels), BonusSpan)
	}
	if levels[0] != 1 || levels[maxBonus] != 1 || levels[BonusSpan-1] != 1 {
		t.Fatalf("bonus distribution %v, want one enqueue each at -5, 0, +5", levels)
	}
	offEnv := newEnv(1, 1)
	off := NewWithConfig(offEnv, Config{InteractivityOff: true})
	off.AddToRunqueue(mkTask(offEnv, 4, 20, 10))
	for i, n := range off.BonusLevels() {
		if n != 0 {
			t.Fatalf("ablation counted bonus level %d", i-maxBonus)
		}
	}
}
