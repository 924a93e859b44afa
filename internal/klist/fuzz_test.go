package klist

import (
	"fmt"
	"slices"
	"testing"
)

// checkList holds h against model, its slots front to back: the forward
// walk through Next and the backward walk through the raw prev links both
// give model, Len agrees, End closes both ends, every member is physically
// linked, and an emptied head is the zero Head again.
func checkList(tb Table, h *Head, model []uint32) error {
	if h.Len() != len(model) {
		return fmt.Errorf("Len = %d, model holds %d", h.Len(), len(model))
	}
	if len(model) == 0 {
		if !h.Empty() || h.First() >= Base {
			return fmt.Errorf("empty list's head is %+v", *h)
		}
		return nil
	}
	// Both walks stop at a slot the table does not hold or past the
	// model's length, so a broken link fails the comparison, not the walk.
	var fwd, back []uint32
	for s := h.First(); s >= Base && int(s) < len(tb) && len(fwd) <= len(model); s = tb[s].Next() {
		fwd = append(fwd, s)
	}
	for s := h.last; s >= Base && int(s) < len(tb) && len(back) <= len(model); s = tb[s].prev {
		back = append(back, s)
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, model) || !slices.Equal(back, model) {
		return fmt.Errorf("forward walk %v, backward walk %v, model %v", fwd, back, model)
	}
	if tb[model[0]].prev != End || tb[model[len(model)-1]].next != End {
		return fmt.Errorf("list %v is not closed by End at both ends", model)
	}
	for _, s := range model {
		if !tb[s].OnList() || !tb[s].InListProper() {
			return fmt.Errorf("member %d reads OnList=%v InListProper=%v", s, tb[s].OnList(), tb[s].InListProper())
		}
	}
	return nil
}

// FuzzKlist drives fuzzHeads lists over one table of fuzzNodes nodes with
// every operation the package has, checked after each step against a
// slice-of-slots model: the order of every list in both directions, Len,
// and each node's OnList / InListProper. An operation the model says is
// misuse — inserting a linked or dangling node, removing one that is off
// or dangling, or removing a node at an end of its own list through
// another list's head — must panic and change nothing.
func FuzzKlist(f *testing.F) {
	const fuzzNodes, fuzzHeads = 12, 3
	f.Add([]byte{0, 1, 9, 2, 18, 3, 1, 4, 2, 2, 3, 1, 4, 3, 6, 3, 5, 5, 7, 4})
	f.Add([]byte{1, 1, 1, 2, 1, 3, 3, 1, 3, 2, 4, 2, 2, 1, 2, 3, 6, 2, 0, 2})
	f.Add([]byte{5, 7, 0, 7, 6, 7, 0, 7, 10, 8, 7, 7, 7, 8, 2, 7, 11, 8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fx := newFixture(fuzzNodes)
		var heads [fuzzHeads]Head
		var model [fuzzHeads][]uint32 // slots, front to back
		// where[id] is the list node id is on, -1 off list, -2 dangling.
		var where [fuzzNodes + 1]int
		for id := range where {
			where[id] = -1
		}
		for step := 0; 2*step+1 < len(ops); step++ {
			b0, b1 := ops[2*step], ops[2*step+1]
			op, hi, id := b0%8, int(b0/8)%fuzzHeads, 1+int(b1)%fuzzNodes
			h, w, n, s := &heads[hi], where[id], fx.node(id), fx.slot(id)
			misuse := func(what string, fn func()) {
				before := heads
				defer func() {
					if recover() == nil {
						t.Fatalf("step %d: %s of node %d (on %d) did not panic", step, what, id, w)
					}
					if heads != before {
						t.Fatalf("step %d: a refused %s changed a head", step, what)
					}
				}()
				fn()
			}
			switch op {
			case 0, 1: // PushFront, PushBack
				push, what := fx.tb.PushFront, "PushFront"
				if op == 1 {
					push, what = fx.tb.PushBack, "PushBack"
				}
				if w != -1 {
					misuse(what, func() { push(h, n, s) })
					break
				}
				push(h, n, s)
				if op == 0 {
					model[hi] = append([]uint32{s}, model[hi]...)
				} else {
					model[hi] = append(model[hi], s)
				}
				where[id] = hi
			case 2, 3, 4: // Remove, MoveBack, UnlinkKeepNext, on the node's own list
				names := [...]string{2: "Remove", 3: "MoveBack", 4: "UnlinkKeepNext"}
				fns := [...]func(*Head, *Node, uint32){2: fx.tb.Remove, 3: fx.tb.MoveBack, 4: fx.tb.UnlinkKeepNext}
				if w < 0 {
					misuse(names[op], func() { fns[op](h, n, s) })
					break
				}
				fns[op](&heads[w], n, s)
				k := slices.Index(model[w], s)
				model[w] = slices.Delete(model[w], k, k+1)
				switch op {
				case 2:
					where[id] = -1
				case 3:
					model[w] = append(model[w], s)
				case 4:
					where[id] = -2
				}
			case 5: // MarkQueued
				if w != -1 {
					misuse("MarkQueued", n.MarkQueued)
					break
				}
				n.MarkQueued()
				where[id] = -2
			case 6: // ResetDangling: of a dangling or an off-list node
				if w >= 0 {
					misuse("ResetDangling", n.ResetDangling)
					break
				}
				n.ResetDangling()
				where[id] = -1
			case 7: // Remove through another list's head, from an end
				if w < 0 || s != model[w][0] && s != model[w][len(model[w])-1] {
					break
				}
				other := &heads[(w+1+hi%(fuzzHeads-1))%fuzzHeads]
				misuse("Remove through another head", func() { fx.tb.Remove(other, n, s) })
			}
			for k := range heads {
				if err := checkList(fx.tb, &heads[k], model[k]); err != nil {
					t.Fatalf("step %d (op %d node %d): list %d: %v", step, op, id, k, err)
				}
			}
			for id := 1; id <= fuzzNodes; id++ {
				n := fx.node(id)
				if n.OnList() != (where[id] != -1) || n.InListProper() != (where[id] >= 0) {
					t.Fatalf("step %d: node %d (model %d) reads OnList=%v InListProper=%v",
						step, id, where[id], n.OnList(), n.InListProper())
				}
			}
		}
	})
}
