package klist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

type item struct {
	id   int
	node Node
}

func newItem(id int) *item {
	it := &item{id: id}
	it.node.Owner = it
	return it
}

func ids(h *Head) []int {
	var out []int
	h.ForEach(func(n *Node) bool {
		out = append(out, n.Owner.(*item).id)
		return true
	})
	return out
}

func wantIDs(t *testing.T, h *Head, want ...int) {
	t.Helper()
	got := ids(h)
	if len(got) != len(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
}

func TestEmptyList(t *testing.T) {
	h := NewHead()
	if !h.Empty() {
		t.Fatal("new list not empty")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
	if h.First() != nil {
		t.Fatal("First on empty list should be nil")
	}
}

func TestPushFrontOrdersLikeRunqueue(t *testing.T) {
	// add_to_runqueue puts new tasks at the beginning, so the most
	// recently woken task is First.
	h := NewHead()
	for i := 1; i <= 3; i++ {
		h.PushFront(&newItem(i).node)
	}
	wantIDs(t, h, 3, 2, 1)
}

func TestPushBack(t *testing.T) {
	h := NewHead()
	for i := 1; i <= 3; i++ {
		h.PushBack(&newItem(i).node)
	}
	wantIDs(t, h, 1, 2, 3)
}

func TestRemoveMiddle(t *testing.T) {
	h := NewHead()
	items := make([]*item, 5)
	for i := range items {
		items[i] = newItem(i)
		h.PushBack(&items[i].node)
	}
	h.Remove(&items[2].node)
	wantIDs(t, h, 0, 1, 3, 4)
	if items[2].node.OnList() {
		t.Fatal("removed node still claims to be on a list")
	}
}

func TestRemoveAllBothEnds(t *testing.T) {
	h := NewHead()
	items := make([]*item, 6)
	for i := range items {
		items[i] = newItem(i)
		h.PushBack(&items[i].node)
	}
	for lo, hi := 0, len(items)-1; lo < hi; lo, hi = lo+1, hi-1 {
		h.Remove(&items[lo].node)
		h.Remove(&items[hi].node)
	}
	if !h.Empty() {
		t.Fatal("list not empty after removing every node")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
}

// TestMoveFrontBack: the round-robin rotation moves the front of the list
// (the task that just ran) to the back, as MoveBack does a node from the
// middle; moving the back node is a no-op.
func TestMoveFrontBack(t *testing.T) {
	h := NewHead()
	items := make([]*item, 4)
	for i := range items {
		items[i] = newItem(i)
		h.PushBack(&items[i].node)
	}
	h.MoveBack(&items[0].node)
	wantIDs(t, h, 1, 2, 3, 0)
	h.MoveBack(&items[2].node)
	wantIDs(t, h, 1, 3, 0, 2)
	h.MoveBack(&items[2].node)
	wantIDs(t, h, 1, 3, 0, 2)
}

func TestNextNavigation(t *testing.T) {
	h := NewHead()
	a, b, c := newItem(1), newItem(2), newItem(3)
	h.PushBack(&a.node)
	h.PushBack(&b.node)
	if a.node.Next() != &b.node {
		t.Fatal("a.Next should be b")
	}
	if b.node.Next() != nil {
		t.Fatal("b.Next should be nil (last)")
	}
	if c.node.Next() != nil {
		t.Fatal("c.Next should be nil (off list)")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	h := NewHead()
	a := newItem(1)
	h.PushBack(&a.node)
	defer func() {
		if recover() == nil {
			t.Fatal("inserting an on-list node should panic")
		}
	}()
	h.PushFront(&a.node)
}

func TestRemoveOffListPanics(t *testing.T) {
	h := NewHead()
	a := newItem(1)
	defer func() {
		if recover() == nil {
			t.Fatal("removing an off-list node should panic")
		}
	}()
	h.Remove(&a.node)
}

func TestCrossListRemovePanics(t *testing.T) {
	h1, h2 := NewHead(), NewHead()
	a := newItem(1)
	h1.PushBack(&a.node)
	defer func() {
		if recover() == nil {
			t.Fatal("removing from the wrong list should panic")
		}
	}()
	h2.Remove(&a.node)
}

func TestUnlinkKeepNextELSCConvention(t *testing.T) {
	// The ELSC scheduler pulls the running task out of its table list but
	// leaves next non-nil so the rest of the kernel still sees it as "on
	// the run queue" (paper §5.1 footnote 3).
	h := NewHead()
	a, b, c := newItem(1), newItem(2), newItem(3)
	h.PushBack(&a.node)
	h.PushBack(&b.node)
	h.PushBack(&c.node)

	got := b.node.UnlinkKeepNext()
	if got != h {
		t.Fatal("UnlinkKeepNext should return the owning head")
	}
	wantIDs(t, h, 1, 3)
	if !b.node.OnList() {
		t.Fatal("logically-queued node must still report OnList (next != nil)")
	}
	if b.node.InListProper() {
		t.Fatal("logically-queued node must not be physically in a list")
	}
	b.node.ResetDangling()
	if b.node.OnList() {
		t.Fatal("after ResetDangling node must be fully off list")
	}
	h.PushFront(&b.node)
	wantIDs(t, h, 2, 1, 3)
}

// TestMarkQueuedIsTheDanglingState: a node marked queued reads as on a
// list while in none, refuses to be inserted or marked again until
// ResetDangling clears it, and is then an ordinary off-list node.
func TestMarkQueuedIsTheDanglingState(t *testing.T) {
	h := NewHead()
	a, b := newItem(1), newItem(2)
	h.PushBack(&a.node)

	b.node.MarkQueued()
	if !b.node.OnList() || b.node.InListProper() {
		t.Fatalf("marked node: OnList=%v InListProper=%v, want true/false", b.node.OnList(), b.node.InListProper())
	}
	wantIDs(t, h, 1)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a marked node should panic", what)
			}
		}()
		fn()
	}
	mustPanic("PushFront", func() { h.PushFront(&b.node) })
	mustPanic("PushBack", func() { h.PushBack(&b.node) })
	mustPanic("MarkQueued", func() { b.node.MarkQueued() })
	mustPanic("Remove", func() { h.Remove(&b.node) })
	wantIDs(t, h, 1)

	b.node.ResetDangling()
	if b.node.OnList() {
		t.Fatal("after ResetDangling a marked node must be fully off list")
	}
	h.PushFront(&b.node)
	wantIDs(t, h, 2, 1)
	mustPanic("MarkQueued of a linked node", func() { a.node.MarkQueued() })
}

func TestResetDanglingOnListPanics(t *testing.T) {
	h := NewHead()
	a := newItem(1)
	h.PushBack(&a.node)
	defer func() {
		if recover() == nil {
			t.Fatal("ResetDangling on an in-list node should panic")
		}
	}()
	a.node.ResetDangling()
}

func TestForEachEarlyStop(t *testing.T) {
	h := NewHead()
	for i := 0; i < 5; i++ {
		h.PushBack(&newItem(i).node)
	}
	count := 0
	h.ForEach(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d nodes, want 3", count)
	}
}

func TestInitResets(t *testing.T) {
	h := NewHead()
	h.PushBack(&newItem(1).node)
	h.Init()
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("Init should empty the list")
	}
}

// checkRing validates the structural invariants of the ring.
func checkRing(t *testing.T, h *Head) {
	t.Helper()
	n := 0
	h.ForEach(func(node *Node) bool {
		if node.head != h {
			t.Fatal("node.head mismatch")
		}
		if node.next.prev != node || node.prev.next != node {
			t.Fatal("broken ring links")
		}
		n++
		return true
	})
	if n != h.Len() {
		t.Fatalf("walked %d nodes, Len says %d", n, h.Len())
	}
}

// TestQuickAgainstSliceModel drives the list with random operations and
// compares against a plain slice reference model.
func TestQuickAgainstSliceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHead()
		var model []*item
		pool := make([]*item, 64)
		for i := range pool {
			pool[i] = newItem(i)
		}
		onList := make(map[int]bool)

		for _, op := range opsRaw {
			switch op % 5 {
			case 0: // push front
				it := pool[rng.Intn(len(pool))]
				if onList[it.id] {
					continue
				}
				h.PushFront(&it.node)
				model = append([]*item{it}, model...)
				onList[it.id] = true
			case 1: // push back
				it := pool[rng.Intn(len(pool))]
				if onList[it.id] {
					continue
				}
				h.PushBack(&it.node)
				model = append(model, it)
				onList[it.id] = true
			case 2: // remove random element
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				it := model[i]
				h.Remove(&it.node)
				model = append(model[:i], model[i+1:]...)
				onList[it.id] = false
			case 3: // move back
				if len(model) == 0 {
					continue
				}
				i := rng.Intn(len(model))
				it := model[i]
				h.MoveBack(&it.node)
				model = append(model[:i], model[i+1:]...)
				model = append(model, it)
			case 4: // check first
				if len(model) == 0 {
					if h.First() != nil {
						return false
					}
					continue
				}
				if h.First().Owner.(*item) != model[0] {
					return false
				}
			}
			checkRing(t, h)
			got := ids(h)
			if len(got) != len(model) {
				return false
			}
			for i := range got {
				if got[i] != model[i].id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
