package kernel

import "elsc/internal/klist"

// WaitQueue is a FIFO queue of blocked tasks, the analogue of the kernel's
// wait_queue_head_t. Tasks block on it from a Syscall's Fn via BlockOn and
// are released with Machine.WakeOne / Machine.WakeAll (try_to_wake_up). Its
// list links slots of the machine's proc table, one per pid, so the zero
// value is an empty queue, ready to use, and a WaitQueue can be held by
// value in 8 bytes.
type WaitQueue struct {
	waiters klist.Head
}

// enqueue appends p, FIFO order.
func (wq *WaitQueue) enqueue(p *Proc) {
	if p.waitingOn != nil {
		panic("kernel: task blocking while already on a wait queue")
	}
	p.waitingOn = wq
	p.M.waitNodes.PushBack(&wq.waiters, &p.waitNode, waitSlot(p))
}

// waitSlot is p's slot in its machine's waitNodes: spawn adds one per pid,
// in pid order, so pid 1 holds klist.Base.
func waitSlot(p *Proc) uint32 { return uint32(p.Task.ID-1) + klist.Base }

// dequeueFirst removes and returns the longest waiter, or nil.
func (wq *WaitQueue) dequeueFirst(m *Machine) *Proc {
	if wq.waiters.Empty() {
		return nil
	}
	slot := wq.waiters.First()
	p := m.procs[slot-klist.Base]
	m.waitNodes.Remove(&wq.waiters, &p.waitNode, slot)
	p.waitingOn = nil
	return p
}
