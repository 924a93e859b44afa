// Package klist provides an intrusive circular doubly linked list modeled
// on the Linux kernel's struct list_head.
//
// Every list is a ring of Node values threaded through a sentinel head.
// Payload structures embed a Node and are recovered from it via the Owner
// pointer, mirroring the kernel's container_of idiom without unsafe
// arithmetic. An empty node (Next == Prev == nil) is "off list", matching
// the kernel convention the paper relies on: a task's run_list next pointer
// is nil exactly when the task is not on the run queue, and the ELSC
// scheduler additionally nils only Prev to mark "on the run queue but not in
// any table list" (paper §5.1, footnote 3). A policy that holds a task
// outside any list (an array heap) puts it in that same state with
// MarkQueued, so Next != nil is the one membership test for every policy.
//
// The zero value of Head is not ready to use; call Init (or NewHead).
package klist

// Node is one link in a circular doubly linked list. Embed it in the
// structure being listed and set Owner to the embedding value.
type Node struct {
	next, prev *Node
	// Owner points back to the structure that embeds this Node. It is
	// opaque to the list machinery and returned by Head iteration
	// helpers.
	Owner any
	// head identifies the sentinel this node is linked under, so that
	// membership checks and removal can verify bookkeeping in tests.
	head *Head
}

// Head is the sentinel of a circular doubly linked list. A fresh Head must
// be initialized with Init before use.
type Head struct {
	root Node
	len  int
}

// NewHead returns an initialized, empty list head.
func NewHead() *Head {
	h := new(Head)
	h.Init()
	return h
}

// Init makes (or resets) h to an empty list. Any nodes previously on the
// list are abandoned without being unlinked.
func (h *Head) Init() {
	h.root.next = &h.root
	h.root.prev = &h.root
	h.root.head = h
	h.root.Owner = nil
	h.len = 0
}

// Empty reports whether the list has no elements.
func (h *Head) Empty() bool { return h.root.next == &h.root }

// Len returns the number of elements on the list in O(1).
func (h *Head) Len() int { return h.len }

// First returns the first node on the list, or nil if the list is empty.
func (h *Head) First() *Node {
	if h.Empty() {
		return nil
	}
	return h.root.next
}

// insert links n between prev and next.
func (h *Head) insert(n, prev, next *Node) {
	if n.OnList() {
		panic("klist: inserting node that is already on a list")
	}
	n.prev = prev
	n.next = next
	prev.next = n
	next.prev = n
	n.head = h
	h.len++
}

// PushFront adds n to the front of the list (list_add). The paper's
// add_to_runqueue places newly woken tasks here.
func (h *Head) PushFront(n *Node) { h.insert(n, &h.root, h.root.next) }

// PushBack adds n to the end of the list (list_add_tail). The ELSC
// scheduler appends predicted-counter (exhausted) tasks here.
func (h *Head) PushBack(n *Node) { h.insert(n, h.root.prev, &h.root) }

// Remove unlinks n from the list (list_del). The node is fully detached:
// both link pointers become nil, like the run-queue convention where
// next == nil means "not on the run queue".
func (h *Head) Remove(n *Node) {
	if n.head != h || !n.OnList() {
		panic("klist: removing node that is not on this list")
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	n.next = nil
	n.prev = nil
	n.head = nil
	h.len--
}

// MoveBack unlinks n and re-adds it at the back of this same list
// (move_last_runqueue): the SCHED_RR rotation of the list-scanning
// policies.
func (h *Head) MoveBack(n *Node) {
	h.Remove(n)
	h.PushBack(n)
}

// ForEach calls fn for each node from front to back. fn must not modify
// the list.
func (h *Head) ForEach(fn func(*Node) bool) {
	for n := h.root.next; n != &h.root; n = n.next {
		if !fn(n) {
			return
		}
	}
}

// OnList reports whether n is currently linked on some list.
func (n *Node) OnList() bool { return n.next != nil }

// Next returns the node after n on its list, or nil if n is last or off
// list.
func (n *Node) Next() *Node {
	if !n.OnList() || n.next == &n.head.root {
		return nil
	}
	return n.next
}

// UnlinkKeepNext splices n out of its list but leaves n.next pointing at
// its former successor. This mirrors the ELSC trick (paper §5.1): after the
// scheduler manually pulls a running task out of its table list, the rest
// of the kernel must still believe the task is "on the run queue"
// (next != nil) while the table knows it is in no list (prev == nil).
// Returns the Head it was removed from.
func (n *Node) UnlinkKeepNext() *Head {
	h := n.head
	if h == nil || !n.OnList() {
		panic("klist: UnlinkKeepNext on node not on a list")
	}
	n.prev.next = n.next
	n.next.prev = n.prev
	h.len--
	// Keep n.next as a dangling marker of "still logically queued".
	n.prev = nil
	n.head = nil
	return h
}

// MarkQueued puts an off-list node in the footnote-3 state directly: it
// reads as queued (OnList) while linked in no list, for a task its policy
// holds in a structure that is not a list. ResetDangling undoes it.
func (n *Node) MarkQueued() {
	if n.OnList() {
		panic("klist: MarkQueued on node that is already on a list")
	}
	n.next = n
}

// InListProper reports whether the node is linked AND has both pointers,
// i.e. it is physically present in a list (not merely marked logically
// queued via UnlinkKeepNext or MarkQueued).
func (n *Node) InListProper() bool { return n.next != nil && n.prev != nil }

// ResetDangling clears a node left dangling by UnlinkKeepNext or MarkQueued
// so it can be inserted again. Panics if the node is physically on a list.
func (n *Node) ResetDangling() {
	if n.InListProper() {
		panic("klist: ResetDangling on node still in a list")
	}
	n.next = nil
	n.prev = nil
	n.head = nil
}
