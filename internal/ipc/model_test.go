package ipc

import (
	"testing"
	"testing/quick"

	"elsc/internal/kernel"
	"elsc/internal/sim"
)

// TestQueueAgainstFIFOModel drives a queue with a randomized mix of
// producers and consumers on a randomized machine and checks the whole
// history against a simple FIFO model: per-sender order preserved, nothing
// lost, nothing duplicated, capacity never exceeded.
func TestQueueAgainstFIFOModel(t *testing.T) {
	f := func(seed int64, capRaw, producersRaw, perRaw uint8, latencyOn bool) bool {
		capacity := int(capRaw % 6)          // 0 (unbounded) .. 5
		producers := int(producersRaw%4) + 1 // 1..4
		per := int(perRaw%12) + 1            // 1..12 messages each
		cpus := 1 + int(uint(seed)%3)        // 1..3 CPUs

		m := newMachine(cpus, seed%2 == 0)
		q := NewQueue("model", capacity)
		if latencyOn {
			q.DeliverLatency = 40_000
		}

		type rec struct{ from, seq int }
		var got []rec
		maxLen := 0

		for pid := 0; pid < producers; pid++ {
			pid := pid
			n := 0
			m.Spawn("prod", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
				if q.Len() > maxLen {
					maxLen = q.Len()
				}
				if n >= per {
					return kernel.Exit{}
				}
				n++
				return q.Send(p, 300, Msg{From: pid, Seq: n})
			}))
		}
		total := producers * per
		var cur Msg
		recvd := 0
		consumed := false
		m.Spawn("cons", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
			if consumed {
				got = append(got, rec{cur.From, cur.Seq})
			}
			if recvd >= total {
				return kernel.Exit{}
			}
			recvd++
			consumed = true
			return q.Recv(p, 300, &cur)
		}))
		m.Run(func() bool { return m.Alive() == 0 })

		if len(got) != total {
			return false
		}
		// Per-sender FIFO and no duplicates.
		lastSeq := make(map[int]int)
		for _, r := range got {
			if r.seq != lastSeq[r.from]+1 {
				return false
			}
			lastSeq[r.from] = r.seq
		}
		// Capacity respected (buffered portion only; in-flight counted
		// separately by the queue itself).
		if capacity > 0 && maxLen > capacity {
			return false
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestYieldMutexNeverDoubleOwns drives the mutex with random lock/unlock
// sequences from many tasks and asserts single ownership throughout.
func TestYieldMutexNeverDoubleOwns(t *testing.T) {
	f := func(seed int64, workersRaw, roundsRaw uint8) bool {
		workers := int(workersRaw%5) + 2
		rounds := int(roundsRaw%8) + 2
		m := newMachine(2, true)
		mu := NewYieldMutex("m", 0)
		rng := sim.NewRNG(seed)

		violated := false
		inside := 0
		for w := 0; w < workers; w++ {
			hold := rng.Range(500, 5000)
			var got bool
			n, state := 0, 0
			m.Spawn("w", nil, kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
				for {
					switch state {
					case 0:
						if n >= rounds {
							return kernel.Exit{}
						}
						state = 1
						got = false
						return mu.TryLock(p, &got)
					case 1:
						if !got {
							state = 5
							return kernel.Yield{}
						}
						inside++
						if inside > 1 {
							violated = true
						}
						state = 2
						return kernel.Compute{Cycles: hold}
					case 2:
						inside--
						n++
						state = 0
						return mu.Unlock(p)
					case 5: // after a failed spin, suspend
						state = 6
						return mu.LockBlocking(p)
					case 6:
						inside++
						if inside > 1 {
							violated = true
						}
						state = 2
						continue
					}
				}
			}))
		}
		m.Run(func() bool { return m.Alive() == 0 || violated })
		return !violated && !mu.Locked()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
