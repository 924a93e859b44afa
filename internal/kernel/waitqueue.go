package kernel

import "elsc/internal/klist"

// WaitQueue is a FIFO queue of blocked tasks, the analogue of the kernel's
// wait_queue_head_t. Tasks block on it from a Syscall's Fn via BlockOn and
// are released with Machine.WakeOne / Machine.WakeAll (try_to_wake_up).
type WaitQueue struct {
	Name    string
	waiters klist.Head
}

// NewWaitQueue returns an empty wait queue.
func NewWaitQueue(name string) *WaitQueue {
	wq := &WaitQueue{Name: name}
	wq.waiters.Init()
	return wq
}

// Len returns the number of blocked tasks.
func (wq *WaitQueue) Len() int { return wq.waiters.Len() }

// enqueue appends p, FIFO order.
func (wq *WaitQueue) enqueue(p *Proc) {
	if p.waitingOn != nil {
		panic("kernel: task blocking while already on a wait queue")
	}
	p.waitingOn = wq
	wq.waiters.PushBack(&p.WaitNode)
}

// dequeueFirst removes and returns the longest waiter, or nil.
func (wq *WaitQueue) dequeueFirst() *Proc {
	n := wq.waiters.First()
	if n == nil {
		return nil
	}
	wq.waiters.Remove(n)
	p := n.Owner.(*Proc)
	p.waitingOn = nil
	return p
}
