package main

// The noise probe is a fixed amount of work that uses no code of the repo,
// so no change to the repo can move it: how long it takes says how fast the
// host was, not how fast the simulator is. It runs before every rep. Its
// time is reported (benchmark.noise_probe_ms) and reps whose probe is more
// than noisyFactor over the run's fastest are counted and listed in
// noisy_reps. Nothing is dropped or rescaled by it: run_s and setup_s are
// wall seconds.
//
// The work is shaped like the simulator — a binary-heap event loop over
// pointer-linked, cache-line-sized task records — because the slow spells
// of the shared sizing host (a tenant on the sibling hardware thread) do
// not show in a register-only loop.

// probeEvents is the probe's fixed work: about 50 ms on the sizing host.
const probeEvents = 500_000

type probeTask struct {
	state, count uint64
	next         *probeTask
	_            [5]uint64 // one task per cache line
}

type probeEvent struct {
	at uint64
	t  *probeTask
}

// probeState is built once; every probe continues the same event loop.
type probeState struct {
	heap   []probeEvent
	events int
}

// newProbe builds a probe that fires events events per run.
func newProbe(events int) *probeState {
	tasks := make([]*probeTask, 512)
	for i := range tasks {
		tasks[i] = &probeTask{state: uint64(i)*2654435761 + 1}
	}
	p := &probeState{heap: make([]probeEvent, 0, len(tasks)), events: events}
	for i, t := range tasks {
		t.next = tasks[(i*167+13)%len(tasks)]
		p.push(probeEvent{uint64(i), t})
	}
	return p
}

func (p *probeState) push(e probeEvent) {
	h := append(p.heap, e)
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	p.heap = h
}

func (p *probeState) pop() probeEvent {
	h := p.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < last && h[l].at < h[m].at {
			m = l
		}
		if r < last && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	p.heap = h
	return top
}

// run fires the probe's events and returns the milliseconds the host took.
func (p *probeState) run() float64 {
	t0 := now()
	for i := 0; i < p.events; i++ {
		e := p.pop()
		t := e.t
		t.state ^= t.state << 13
		t.state ^= t.state >> 7
		t.state ^= t.state << 17
		t.count++
		if t.state&3 == 0 {
			t = t.next
		}
		p.push(probeEvent{e.at + 100 + t.state%10000, t})
	}
	return float64(now()-t0) / 1e6
}
