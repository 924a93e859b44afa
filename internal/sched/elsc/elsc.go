// Package elsc implements the ELSC scheduler, the paper's primary
// contribution (§5): a table-based run queue that keeps tasks sorted by
// static goodness so that schedule() examines only a handful of tasks from
// the highest populated list instead of walking the whole queue.
//
// Structure (paper §5.1, Figure 1b):
//
//   - An array of 30 doubly linked lists. Real-time tasks occupy the ten
//     highest lists, indexed by rt_priority/10; SCHED_OTHER tasks are
//     indexed by (counter+priority)/4 into the lower twenty.
//   - A top pointer marks the highest list holding a selectable
//     (non-zero-counter) task; a next_top pointer marks the highest list
//     holding tasks that will become selectable at the next counter
//     recalculation.
//   - Exhausted (zero-counter) tasks are inserted at the *end* of the list
//     chosen by their predicted post-recalculation counter, so the
//     recalculation loop never has to re-index the queue.
//   - Running tasks are manually pulled out of their list but keep a
//     non-nil next pointer so the rest of the kernel still believes they
//     are "on the run queue" (footnote 3).
//
// Behavioral deviations from the stock scheduler, both documented by the
// paper (§5.2): the search is confined to the highest populated list, so a
// task one list down whose affinity/mm bonuses would have out-scored the
// winner is never considered; and a yielding task that is the only
// candidate is simply re-run instead of triggering a recalculation.
package elsc

import (
	"fmt"

	"elsc/internal/klist"
	"elsc/internal/sched"
	"elsc/internal/task"
)

// Table geometry (paper §5.1).
const (
	// DefaultTableSize is the paper's "array of 30 doubly linked lists".
	DefaultTableSize = 30
	// rtLists is how many of the highest lists are reserved for
	// real-time tasks ("it uses one of the ten highest lists").
	rtLists = 10
)

// Config tunes the knobs the paper calls out, for the ablation experiments.
// The zero value selects the paper's settings.
type Config struct {
	// TableSize is the number of lists (default 30).
	TableSize int
	// SearchLimit overrides the per-list examination cap. Zero selects
	// the paper's "half the number of processors in the system plus
	// five".
	SearchLimit int
	// DisableUPShortcut turns off the uniprocessor early exit on a
	// memory-map match (§5.2), for ablation.
	DisableUPShortcut bool
}

// Sched is the ELSC scheduler. Create with New.
type Sched struct {
	env  *sched.Env
	cfg  Config
	size int
	rtLo int // first RT list index

	lists []klist.Head
	// nz counts selectable tasks per list (non-zero counter, or
	// real-time); z counts parked zero-counter tasks awaiting the next
	// recalculation.
	nz []int
	z  []int

	// top is the highest list with nz > 0; nextTop the highest with
	// z > 0; -1 when none. The paper treats these as "zero" pointers;
	// a -1 sentinel is the Go equivalent.
	top     int
	nextTop int

	total int // tasks physically in lists
}

// New returns an ELSC scheduler with the paper's configuration.
func New(env *sched.Env) *Sched { return NewWithConfig(env, Config{}) }

// NewWithConfig returns an ELSC scheduler with explicit knobs.
func NewWithConfig(env *sched.Env, cfg Config) *Sched {
	size := cfg.TableSize
	if size == 0 {
		size = DefaultTableSize
	}
	if size < rtLists+2 {
		panic("elsc: table too small for RT lists plus SCHED_OTHER lists")
	}
	s := &Sched{
		env:     env,
		cfg:     cfg,
		size:    size,
		rtLo:    size - rtLists,
		lists:   make([]klist.Head, size),
		nz:      make([]int, size),
		z:       make([]int, size),
		top:     -1,
		nextTop: -1,
	}
	return s
}

// Name implements sched.Scheduler.
func (s *Sched) Name() string { return "elsc" }

// Visibility implements sched.Scheduler: every CPU selects from the one table.
func (s *Sched) Visibility() sched.Visibility { return sched.VisibleAll }

// searchLimit is the per-list cap on examined tasks: "currently set to be
// half the number of processors in the system plus five" (§5.2).
func (s *Sched) searchLimit() int {
	if s.cfg.SearchLimit > 0 {
		return s.cfg.SearchLimit
	}
	return s.env.NCPU/2 + 5
}

// indexFor computes the table list for a task with the given effective
// counter: rt_priority/10 into the ten highest lists for real-time tasks,
// (counter+priority)/4 into the rest for SCHED_OTHER (§5.1).
func (s *Sched) indexFor(t *task.Task, counter int) int {
	if t.RealTime() {
		idx := s.rtLo + t.RTPriority/10
		if idx >= s.size {
			idx = s.size - 1
		}
		return idx
	}
	idx := (counter + t.Priority) * (s.rtLo) / (task.MaxPriority*3 + 1)
	// The paper's fixed divisor of 4 assumes 20 SCHED_OTHER lists over a
	// static-goodness range of about 0..80; generalize for ablations
	// over TableSize but reduce to exactly /4 at the default geometry.
	if s.size == DefaultTableSize {
		idx = (counter + t.Priority) / 4
	}
	if idx >= s.rtLo {
		idx = s.rtLo - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// inZeroSection reports whether t was parked as an exhausted task and no
// recalculation has happened since: the zero tag is only valid for the
// epoch it was written in. This makes the recalculation merge O(1): after
// the epoch advances, every parked task's tag silently expires.
func (s *Sched) inZeroSection(t *task.Task) bool {
	return t.QZero && t.QStamp == s.env.Epoch.N()
}

// AddToRunqueue implements the paper's modified add_to_runqueue. Selectable
// tasks go to the front of the list chosen by their current static
// goodness; exhausted tasks go to the *back* of the list chosen by their
// predicted post-recalculation counter.
func (s *Sched) AddToRunqueue(t *task.Task) {
	if t.IsIdle {
		panic("elsc: idle task on run queue")
	}
	if t.OnRunqueue() {
		return
	}
	c := t.Counter(s.env.Epoch)
	n, i := s.env.Tasks.Link(t)
	if t.RealTime() || c > 0 {
		idx := s.indexFor(t, c)
		s.env.Tasks.Nodes().PushFront(&s.lists[idx], n, i)
		t.QIndex, t.QZero = idx, false
		s.nz[idx]++
		if idx > s.top {
			s.top = idx
		}
	} else {
		idx := s.indexFor(t, t.PredictedCounter(s.env.Epoch))
		s.env.Tasks.Nodes().PushBack(&s.lists[idx], n, i)
		t.QIndex, t.QZero = idx, true
		s.z[idx]++
		if idx > s.nextTop {
			s.nextTop = idx
		}
	}
	t.QStamp = s.env.Epoch.N()
	s.total++
}

// DelFromRunqueue removes t. It handles both a task physically in a list
// and a running task that ELSC already pulled out manually (which the rest
// of the kernel still sees as queued).
func (s *Sched) DelFromRunqueue(t *task.Task) {
	if !t.OnRunqueue() {
		return
	}
	if !t.RunList.InListProper() {
		// Manually dequeued while running: just clear the illusion.
		t.RunList.ResetDangling()
		return
	}
	s.unlink(t)
	t.RunList.ResetDangling()
}

// unlink physically removes t from its list via the footnote-3 manual
// dequeue (next stays set) and repairs counts and pointers. Callers that
// want a full removal must also ResetDangling.
func (s *Sched) unlink(t *task.Task) {
	idx := t.QIndex
	n, i := s.env.Tasks.Link(t)
	s.env.Tasks.Nodes().UnlinkKeepNext(&s.lists[idx], n, i)
	s.total--
	if s.inZeroSection(t) {
		s.z[idx]--
		if idx == s.nextTop && s.z[idx] == 0 {
			s.nextTop = s.scanDown(s.z, idx)
		}
	} else {
		s.nz[idx]--
		if idx == s.top && s.nz[idx] == 0 {
			s.top = s.scanDown(s.nz, idx)
		}
	}
}

// scanDown finds the highest index <= from with a non-zero count, or -1.
func (s *Sched) scanDown(counts []int, from int) int {
	for i := from; i >= 0; i-- {
		if counts[i] > 0 {
			return i
		}
	}
	return -1
}

// Runnable returns the number of selectable tasks in the table. Running
// tasks are not in the table, so no adjustment is needed.
func (s *Sched) Runnable() int { return s.total }

// Drain implements sched.Scheduler: the whole table, list 0..size-1, each
// front to back (selectable section first, then the parked zero section).
// DelFromRunqueue repairs nz/z/top/nextTop as it goes.
func (s *Sched) Drain(_ int, out []*task.Task) []*task.Task {
	for i := range s.lists {
		for t := s.env.Tasks.First(&s.lists[i]); t != nil; t = s.env.Tasks.First(&s.lists[i]) {
			s.DelFromRunqueue(t)
			out = append(out, t)
		}
	}
	return out
}

// checkInvariants panics if the table bookkeeping is inconsistent. Called
// from tests.
func (s *Sched) checkInvariants() {
	total := 0
	for i := range s.lists {
		nz, z := 0, 0
		for t := s.env.Tasks.First(&s.lists[i]); t != nil; t = s.env.Tasks.Next(t) {
			if t.QIndex != i {
				panic(fmt.Sprintf("elsc: task %v QIndex=%d but on list %d", t, t.QIndex, i))
			}
			if s.inZeroSection(t) {
				z++
			} else {
				if z > 0 {
					panic(fmt.Sprintf("elsc: selectable task %v behind zero section on list %d", t, i))
				}
				nz++
			}
		}
		if nz != s.nz[i] || z != s.z[i] {
			panic(fmt.Sprintf("elsc: list %d counts nz=%d z=%d, recorded nz=%d z=%d", i, nz, z, s.nz[i], s.z[i]))
		}
		if s.nz[i] > 0 && i > s.top {
			panic(fmt.Sprintf("elsc: list %d selectable above top=%d", i, s.top))
		}
		if s.z[i] > 0 && i > s.nextTop {
			panic(fmt.Sprintf("elsc: list %d parked above next_top=%d", i, s.nextTop))
		}
		total += s.lists[i].Len()
	}
	if total != s.total {
		panic(fmt.Sprintf("elsc: total=%d, lists hold %d", s.total, total))
	}
	if s.top >= 0 && s.nz[s.top] == 0 {
		panic("elsc: top points at list with no selectable tasks")
	}
	if s.nextTop >= 0 && s.z[s.nextTop] == 0 {
		panic("elsc: next_top points at list with no parked tasks")
	}
}
