// Chatserver: build a custom multithreaded server scenario directly
// against the public API — tasks, blocking queues, and a JVM-style
// yield-spinning lock — rather than using the canned VolanoMark workload.
// It is a miniature of the paper's §4 stress pattern: producers feed a
// shared dispatch queue; a pool of handler threads contend on a user-level
// lock to update shared state, then acknowledge on per-producer queues.
package main

import (
	"fmt"

	"elsc"
)

const (
	producers        = 8
	handlers         = 16
	requestsPerProd  = 50
	handleCost       = 25_000
	userLockHoldCost = 6_000
)

func main() {
	for _, kind := range []elsc.SchedulerKind{elsc.Vanilla, elsc.ELSC} {
		run(kind)
	}
}

func run(kind elsc.SchedulerKind) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 2, SMP: true, Scheduler: kind, Seed: 7})
	srv := m.NewAddressSpace("server")
	cli := m.NewAddressSpace("clients")

	dispatch := elsc.NewQueue("dispatch", 32)
	mu := elsc.NewYieldMutex("state-lock", 0)
	acks := make([]*elsc.Queue, producers)
	for i := range acks {
		acks[i] = elsc.NewQueue(fmt.Sprintf("ack%d", i), 0)
	}

	// Producers: send a request, wait for its ack, repeat.
	for i := 0; i < producers; i++ {
		i := i
		sent, phase := 0, 0
		var ack elsc.Msg
		m.Spawn(fmt.Sprintf("producer%d", i), cli, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
			switch phase {
			case 0:
				if sent >= requestsPerProd {
					return elsc.Exit{}
				}
				sent++
				phase = 1
				return dispatch.Send(p, 2_000, elsc.Msg{From: i, Seq: sent})
			default:
				phase = 0
				return acks[i].Recv(p, 1_000, &ack)
			}
		}))
	}

	// Handlers: take a request, lock shared state JVM-style (try,
	// yield, retry, then suspend), do the work, ack.
	handled := 0
	for h := 0; h < handlers; h++ {
		var req elsc.Msg
		var got bool
		phase, tries := 0, 0
		m.Spawn(fmt.Sprintf("handler%d", h), srv, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
			for {
				switch phase {
				case 0: // wait for work
					if handled >= producers*requestsPerProd {
						return elsc.Exit{}
					}
					phase = 1
					return dispatch.Recv(p, 2_000, &req)
				case 1: // lock with bounded yield-spinning
					if tries >= 3 {
						phase = 3
						return mu.LockBlocking(p)
					}
					tries++
					phase = 2
					got = false
					return mu.TryLock(p, &got)
				case 2:
					if !got {
						phase = 1
						return elsc.Yield{}
					}
					phase = 3
					continue
				case 3: // critical section
					phase = 4
					return elsc.Compute{Cycles: userLockHoldCost}
				case 4: // unlock, then the real work
					phase = 5
					return mu.Unlock(p)
				case 5:
					phase = 6
					return elsc.Compute{Cycles: handleCost}
				case 6: // acknowledge
					handled++
					tries = 0
					phase = 0
					return acks[req.From].Send(p, 1_000, elsc.Msg{})
				}
			}
		}))
	}

	m.Run(func() bool { return handled >= producers*requestsPerProd })
	s := m.Stats()
	fmt.Printf("%-8s handled %d requests in %.3f s | sched calls %6d | %5.0f cyc/call | %4.1f examined | %d recalcs | %d yields\n",
		kind, handled, m.Seconds(), s.SchedCalls, s.CyclesPerSchedule(),
		s.ExaminedPerSchedule(), s.Recalcs, s.YieldCalls)
}
