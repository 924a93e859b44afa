// Package klist provides intrusive doubly linked lists modeled on the Linux
// kernel's struct list_head, linked by index instead of by pointer.
//
// The listed structures live in a table the caller owns and numbers: a
// Table maps each slot number to the Node embedded in the structure that
// slot names, and a Node holds its neighbours' slot numbers, 4 bytes each.
// A Node carries no owner and no head back-pointer; mapping a slot back to
// its structure is a load from the caller's own table (task.Table for run
// lists, the kernel's proc table for wait queues), so there is no unsafe
// and no type assertion anywhere.
//
// Slot 0 names nothing: a node whose next is 0 is off list, matching the
// kernel convention the paper relies on — a task's run_list next pointer is
// NULL exactly when the task is not on the run queue — and the ELSC
// scheduler additionally clears only prev to mark "on the run queue but not
// in any table list" (paper §5.1, footnote 3; UnlinkKeepNext). A policy
// that holds a task outside any list (an array heap) puts it in that same
// state with MarkQueued, so next != 0 is the one membership test for every
// policy.
//
// Slot End closes every list: it is the first node's prev, the last node's
// next, and what Next returns where a walk ends. Every table
// reserves it for a scratch node, so linking and unlinking write a
// neighbour's link without asking whether the neighbour is a list end; only
// the Head's first or last then needs a test. Walking a list reads no
// scratch node, and a caller's own table holds nothing at End either.
//
// The zero value of Head is an empty list, ready to use.
package klist

// End is the slot that closes every list. Add never hands it out: the
// first slot it does is Base, then Base+1, and so on.
const (
	End  = 1
	Base = End + 1
)

// Node is one link of a list: its neighbours' slots, End at either end of
// the list, 0 off list. Embed it in the structure being listed.
type Node struct {
	next, prev uint32
}

// Head is a list's first and last slot and its length. Its first and last
// mean something only while the list is non-empty.
type Head struct {
	first, last, len uint32
}

// Table maps slot numbers to the nodes they name. Slot 0 names nothing and
// slot End holds the table's scratch node; Add hands out Base, Base+1, ...
// The zero value is an empty table.
type Table []*Node

// Add gives n the next slot and returns it.
func (tb *Table) Add(n *Node) uint32 {
	if len(*tb) == 0 {
		*tb = append(*tb, nil, new(Node))
	}
	*tb = append(*tb, n)
	return uint32(len(*tb) - 1)
}

// Empty reports whether the list has no elements.
func (h *Head) Empty() bool { return h.len == 0 }

// Len returns the number of elements on the list in O(1).
func (h *Head) Len() int { return int(h.len) }

// First returns the slot at the front of the list. On an empty list it is
// 0 (never filled) or End (emptied), neither of which a node has.
func (h *Head) First() uint32 { return h.first }

// PushFront links n, the node at slot i, at the front of h (list_add). The
// paper's add_to_runqueue places newly woken tasks here.
func (tb Table) PushFront(h *Head, n *Node, i uint32) {
	if n.next != 0 {
		panic("klist: inserting node that is already on a list")
	}
	f := uint32(End)
	if h.len != 0 {
		f = h.first
	} else {
		h.last = i
	}
	n.next, n.prev = f, End
	tb[f].prev = i
	h.first = i
	h.len++
}

// PushBack links n, the node at slot i, at the back of h (list_add_tail).
// The ELSC scheduler appends predicted-counter (exhausted) tasks here.
func (tb Table) PushBack(h *Head, n *Node, i uint32) {
	if n.next != 0 {
		panic("klist: inserting node that is already on a list")
	}
	l := uint32(End)
	if h.len != 0 {
		l = h.last
	} else {
		h.first = i
	}
	n.next, n.prev = End, l
	tb[l].next = i
	h.last = i
	h.len++
}

// Remove unlinks n, the node at slot i, from h (list_del). The node is
// fully detached: both links become 0, like the run-queue convention where
// next == NULL means "not on the run queue".
func (tb Table) Remove(h *Head, n *Node, i uint32) {
	tb.splice(h, n, i)
	*n = Node{}
}

// splice takes n, the node at slot i, out of h's links and leaves n's own
// as they were. With no back-pointer to check against, it panics, before it
// changes anything, on what the links themselves show is misuse: a node not
// linked (its prev is 0 off list and in the footnote-3 state), a node with
// no predecessor that is not h's first, or one with no successor that is
// not h's last. An emptied head's first and last are End, which no node's
// slot is.
func (tb Table) splice(h *Head, n *Node, i uint32) {
	next, prev := n.next, n.prev
	if prev == 0 || prev == End && h.first != i || next == End && h.last != i {
		panic("klist: removing node that is not linked on this list")
	}
	tb[prev].next = next
	tb[next].prev = prev
	if prev == End {
		h.first = next
	}
	if next == End {
		h.last = prev
	}
	h.len--
}

// MoveBack moves n, the node at slot i, to the back of h, the list it is on
// (move_last_runqueue): the SCHED_RR rotation of the list-scanning
// policies.
func (tb Table) MoveBack(h *Head, n *Node, i uint32) {
	tb.Remove(h, n, i)
	tb.PushBack(h, n, i)
}

// UnlinkKeepNext splices n, the node at slot i, out of h but leaves its
// next link as it was, and clears prev. This mirrors the ELSC trick (paper
// §5.1): after the scheduler manually pulls a running task out of its table
// list, the rest of the kernel must still believe the task is "on the run
// queue" (next != 0) while the table knows it is in no list (prev == 0).
func (tb Table) UnlinkKeepNext(h *Head, n *Node, i uint32) {
	tb.splice(h, n, i)
	n.prev = 0
}

// OnList reports whether n is linked on some list, or marked queued.
func (n *Node) OnList() bool { return n.next != 0 }

// Next returns the slot after n on its list: End if n is the last, 0 if n
// is off list.
func (n *Node) Next() uint32 { return n.next }

// MarkQueued puts an off-list node in the footnote-3 state directly: it
// reads as queued (OnList) while linked in no list, for a task its policy
// holds in a structure that is not a list. ResetDangling undoes it.
func (n *Node) MarkQueued() {
	if n.OnList() {
		panic("klist: MarkQueued on node that is already on a list")
	}
	n.next = End
}

// InListProper reports whether the node is linked AND has both links,
// i.e. it is physically present in a list (not merely marked logically
// queued via UnlinkKeepNext or MarkQueued).
func (n *Node) InListProper() bool { return n.next != 0 && n.prev != 0 }

// ResetDangling clears a node left dangling by UnlinkKeepNext or MarkQueued
// so it can be inserted again. Panics if the node is physically on a list.
func (n *Node) ResetDangling() {
	if n.InListProper() {
		panic("klist: ResetDangling on node still in a list")
	}
	n.next, n.prev = 0, 0
}
