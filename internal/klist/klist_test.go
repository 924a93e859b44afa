package klist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fixture is a table of n nodes with ids 1..n at slots Base..Base+n-1,
// the way a caller numbers the structures it lists. The tests name nodes
// by id.
type fixture struct {
	tb    Table
	nodes []Node // id k is nodes[k-1]
}

func newFixture(n int) *fixture {
	f := &fixture{nodes: make([]Node, n)}
	for k := range f.nodes {
		if s := f.tb.Add(&f.nodes[k]); s != f.slot(k+1) {
			panic("klist test: Add handed out an unexpected slot")
		}
	}
	return f
}

func (f *fixture) slot(id int) uint32 { return uint32(id-1) + Base }
func (f *fixture) node(id int) *Node  { return &f.nodes[id-1] }

func (f *fixture) pushFront(h *Head, id int) { f.tb.PushFront(h, f.node(id), f.slot(id)) }
func (f *fixture) pushBack(h *Head, id int)  { f.tb.PushBack(h, f.node(id), f.slot(id)) }
func (f *fixture) remove(h *Head, id int)    { f.tb.Remove(h, f.node(id), f.slot(id)) }
func (f *fixture) moveBack(h *Head, id int)  { f.tb.MoveBack(h, f.node(id), f.slot(id)) }
func (f *fixture) unlinkKeepNext(h *Head, id int) {
	f.tb.UnlinkKeepNext(h, f.node(id), f.slot(id))
}

// ids walks h front to back.
func (f *fixture) ids(h *Head) []int {
	var out []int
	if h.Empty() {
		return nil
	}
	for s := h.First(); s != End; s = f.tb[s].Next() {
		out = append(out, int(s-Base)+1)
	}
	return out
}

func (f *fixture) want(t *testing.T, h *Head, want ...int) {
	t.Helper()
	got := f.ids(h)
	if len(got) != len(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
	if h.Empty() != (len(want) == 0) {
		t.Fatalf("Empty = %v, want %d elements", h.Empty(), len(want))
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", what)
		}
	}()
	fn()
}

func TestEmptyList(t *testing.T) {
	var h Head
	if !h.Empty() {
		t.Fatal("zero Head not empty")
	}
	if h.First() >= Base {
		t.Fatal("First on an empty list should name no node")
	}
}

func TestPushFrontOrdersLikeRunqueue(t *testing.T) {
	// add_to_runqueue puts new tasks at the beginning, so the most
	// recently woken task is First.
	f := newFixture(3)
	var h Head
	for id := 1; id <= 3; id++ {
		f.pushFront(&h, id)
	}
	f.want(t, &h, 3, 2, 1)
}

func TestPushBack(t *testing.T) {
	f := newFixture(3)
	var h Head
	for id := 1; id <= 3; id++ {
		f.pushBack(&h, id)
	}
	f.want(t, &h, 1, 2, 3)
}

func TestRemoveMiddle(t *testing.T) {
	f := newFixture(5)
	var h Head
	for id := 1; id <= 5; id++ {
		f.pushBack(&h, id)
	}
	f.remove(&h, 3)
	f.want(t, &h, 1, 2, 4, 5)
	if f.nodes[2].OnList() {
		t.Fatal("removed node still claims to be on a list")
	}
}

func TestRemoveAllBothEnds(t *testing.T) {
	f := newFixture(6)
	var h Head
	for id := 1; id <= 6; id++ {
		f.pushBack(&h, id)
	}
	for lo, hi := 1, 6; lo < hi; lo, hi = lo+1, hi-1 {
		f.remove(&h, lo)
		f.remove(&h, hi)
	}
	if !h.Empty() || h.First() >= Base {
		t.Fatalf("list %+v not empty after removing every node", h)
	}
}

// TestMoveFrontBack: the round-robin rotation moves the front of the list
// (the task that just ran) to the back, as MoveBack does a node from the
// middle; moving the back node is a no-op.
func TestMoveFrontBack(t *testing.T) {
	f := newFixture(4)
	var h Head
	for id := 1; id <= 4; id++ {
		f.pushBack(&h, id)
	}
	f.moveBack(&h, 1)
	f.want(t, &h, 2, 3, 4, 1)
	f.moveBack(&h, 3)
	f.want(t, &h, 2, 4, 1, 3)
	f.moveBack(&h, 3)
	f.want(t, &h, 2, 4, 1, 3)
}

func TestNextNavigation(t *testing.T) {
	f := newFixture(3)
	var h Head
	f.pushBack(&h, 1)
	f.pushBack(&h, 2)
	if f.node(1).Next() != f.slot(2) {
		t.Fatal("1.Next should be 2's slot")
	}
	if f.node(2).Next() != End {
		t.Fatal("2.Next should be End (last)")
	}
	if f.node(3).Next() != 0 {
		t.Fatal("3.Next should be 0 (off list)")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	f := newFixture(1)
	var h, other Head
	f.pushBack(&h, 1)
	mustPanic(t, "inserting an on-list node", func() { f.pushFront(&h, 1) })
	mustPanic(t, "inserting an on-list node on another list", func() { f.pushBack(&other, 1) })
}

func TestRemoveOffListPanics(t *testing.T) {
	f := newFixture(1)
	var h Head
	mustPanic(t, "removing an off-list node", func() { f.remove(&h, 1) })
}

// TestCrossListRemovePanics: with no back-pointer, a remove from the wrong
// list is caught wherever the node's links show it — at either end of its
// own list, the other list's first or last is not it.
func TestCrossListRemovePanics(t *testing.T) {
	f := newFixture(4)
	var h1, h2 Head
	f.pushBack(&h1, 1)
	mustPanic(t, "removing a lone node from the wrong list", func() { f.remove(&h2, 1) })
	f.pushBack(&h1, 2)
	f.pushBack(&h2, 3)
	f.pushBack(&h2, 4)
	mustPanic(t, "removing a first node from the wrong list", func() { f.remove(&h2, 1) })
	mustPanic(t, "removing a last node from the wrong list", func() { f.remove(&h2, 2) })
	f.want(t, &h1, 1, 2)
	f.want(t, &h2, 3, 4)
}

func TestUnlinkKeepNextELSCConvention(t *testing.T) {
	// The ELSC scheduler pulls the running task out of its table list but
	// leaves next set so the rest of the kernel still sees it as "on the
	// run queue" (paper §5.1 footnote 3).
	f := newFixture(3)
	var h Head
	for id := 1; id <= 3; id++ {
		f.pushBack(&h, id)
	}
	b := &f.nodes[1]
	f.unlinkKeepNext(&h, 2)
	f.want(t, &h, 1, 3)
	if !b.OnList() {
		t.Fatal("logically-queued node must still report OnList (next != 0)")
	}
	if b.InListProper() {
		t.Fatal("logically-queued node must not be physically in a list")
	}
	mustPanic(t, "removing a logically-queued node", func() { f.remove(&h, 2) })
	b.ResetDangling()
	if b.OnList() {
		t.Fatal("after ResetDangling node must be fully off list")
	}
	f.pushFront(&h, 2)
	f.want(t, &h, 2, 1, 3)
}

// TestMarkQueuedIsTheDanglingState: a node marked queued reads as on a
// list while in none, refuses to be inserted or marked again until
// ResetDangling clears it, and is then an ordinary off-list node.
func TestMarkQueuedIsTheDanglingState(t *testing.T) {
	f := newFixture(2)
	var h Head
	f.pushBack(&h, 1)

	b := &f.nodes[1]
	b.MarkQueued()
	if !b.OnList() || b.InListProper() {
		t.Fatalf("marked node: OnList=%v InListProper=%v, want true/false", b.OnList(), b.InListProper())
	}
	f.want(t, &h, 1)
	mustPanic(t, "PushFront of a marked node", func() { f.pushFront(&h, 2) })
	mustPanic(t, "PushBack of a marked node", func() { f.pushBack(&h, 2) })
	mustPanic(t, "MarkQueued of a marked node", func() { b.MarkQueued() })
	mustPanic(t, "Remove of a marked node", func() { f.remove(&h, 2) })
	f.want(t, &h, 1)

	b.ResetDangling()
	if b.OnList() {
		t.Fatal("after ResetDangling a marked node must be fully off list")
	}
	f.pushFront(&h, 2)
	f.want(t, &h, 2, 1)
	mustPanic(t, "MarkQueued of a linked node", func() { f.nodes[0].MarkQueued() })
}

func TestResetDanglingOnListPanics(t *testing.T) {
	f := newFixture(1)
	var h Head
	f.pushBack(&h, 1)
	mustPanic(t, "ResetDangling on an in-list node", func() { f.nodes[0].ResetDangling() })
}

// TestQuickAgainstSliceModel drives one list with random operations and
// compares against a plain slice reference model; FuzzKlist is the
// several-list, every-operation version.
func TestQuickAgainstSliceModel(t *testing.T) {
	check := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		f := newFixture(64)
		var h Head
		var model []uint32
		onList := make(map[uint32]bool)

		for _, op := range opsRaw {
			switch op % 5 {
			case 0, 1: // push front, push back
				id := 1 + rng.Intn(64)
				s := f.slot(id)
				if onList[s] {
					continue
				}
				if op%5 == 0 {
					f.pushFront(&h, id)
					model = append([]uint32{s}, model...)
				} else {
					f.pushBack(&h, id)
					model = append(model, s)
				}
				onList[s] = true
			case 2: // remove random element
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				s := model[i]
				f.remove(&h, int(s-Base)+1)
				model = append(model[:i], model[i+1:]...)
				onList[s] = false
			case 3: // move back
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				s := model[i]
				f.moveBack(&h, int(s-Base)+1)
				model = append(append(model[:i], model[i+1:]...), s)
			case 4: // check first
				if len(model) == 0 && !h.Empty() || len(model) > 0 && h.First() != model[0] {
					return false
				}
			}
			if err := checkList(f.tb, &h, model); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
