package kernel

import "elsc/internal/sim"

// spinlock is the timing model for the global run-queue spinlock. The
// simulation itself is single threaded; this models only the *time* the
// lock costs. An acquirer arriving at time t while the lock is held until
// f spins for f-t cycles. 2.3.99 holds this one lock across the entire
// schedule() scan, so the hold time of the stock scheduler grows with the
// run-queue length, and with four processors the spin time becomes the
// dominant scheduler cost — the collapse visible in the paper's Figure 3.
type spinlock struct {
	freeAt sim.Time

	acquisitions uint64
	contended    uint64
}

// acquire returns the instant the lock is obtained and the cycles spent
// spinning for it.
func (l *spinlock) acquire(now sim.Time) (start sim.Time, spin uint64) {
	l.acquisitions++
	if l.freeAt > now {
		spin = uint64(l.freeAt - now)
		l.contended++
		return l.freeAt, spin
	}
	return now, 0
}

// release marks the lock free at time at (acquire instant + hold).
func (l *spinlock) release(at sim.Time) {
	if at > l.freeAt {
		l.freeAt = at
	}
}

// bump models a short critical section by an actor whose own timeline is
// not delayed (e.g. the wake-up path inserting into the run queue): the
// lock is pushed busy for hold cycles starting no earlier than now, which
// delays subsequent schedule() calls. This is a deliberate one-sided
// simplification, documented in DESIGN.md.
func (l *spinlock) bump(now sim.Time, hold uint64) {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.acquisitions++
	l.release(start + sim.Time(hold))
}
