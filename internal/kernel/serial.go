package kernel

import "elsc/internal/sim"

// SerialResource models a machine-global serialization point: work passing
// through it executes one reservation at a time, machine-wide. It stands
// in for the coarse kernel locking of the 2.3.x era — most prominently the
// big kernel lock and the networking stack's global locks — which is why
// VolanoMark throughput in the paper barely improves from one processor to
// four (Figure 3: 4,400 msg/s UP vs ~4,600 at 4P for 5 rooms).
//
// A caller reserves hold cycles at the earliest free instant; the returned
// wait is how long it must keep spinning before its turn. The simulation
// is single threaded: this is purely a timing model, like spinlock.
type SerialResource struct {
	lock spinlock
}

// NewSerialResource returns a free resource.
func (m *Machine) NewSerialResource() *SerialResource {
	return &SerialResource{}
}

// Reserve books hold cycles on the resource starting at the earliest
// moment at or after now, and returns how many cycles the caller must wait
// before its reservation begins.
func (r *SerialResource) Reserve(now sim.Time, hold uint64) (wait uint64) {
	start, spin := r.lock.acquire(now)
	r.lock.release(start + sim.Time(hold))
	return spin
}

// Contended returns how many reservations had to wait.
func (r *SerialResource) Contended() uint64 { return r.lock.contended }
