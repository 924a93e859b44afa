package kernel

// CPUStat is one processor's time breakdown, mpstat-style.
type CPUStat struct {
	CPU            int
	WorkCycles     uint64 // task work executed (user + syscall segments)
	IdleCycles     uint64 // time with nothing to run
	Dispatches     uint64 // context switches completed here
	Online         bool   // currently hot-plugged in
	Offlines       uint64 // hot-unplug transitions
	OfflineCycles  uint64 // time spent offline
	TicklessCycles uint64 // idle time with the timer chain parked (NO_HZ)
}

// Utilization returns the busy fraction over the elapsed time.
func (c CPUStat) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(c.WorkCycles) / float64(elapsed)
}

// CPUStats returns the per-processor breakdown. Idle time for a currently
// idle CPU is accounted up to the present instant.
func (m *Machine) CPUStats() []CPUStat {
	out := make([]CPUStat, len(m.cpus))
	for i, c := range m.cpus {
		idle := c.idleAccum
		if c.isIdle() {
			idle += uint64(m.eng.Now() - c.idleFrom)
		}
		online := c.online()
		offline := c.offlineAccum
		if !online {
			offline += uint64(m.eng.Now() - c.offlineFrom)
		}
		tickless := c.ticklessAccum
		if online && !c.tickEv.Pending() {
			tickless += uint64(m.eng.Now() - c.ticklessFrom)
		}
		out[i] = CPUStat{
			CPU:            i,
			WorkCycles:     c.work,
			IdleCycles:     idle,
			Dispatches:     c.dispatches,
			Online:         online,
			Offlines:       c.offlines,
			OfflineCycles:  offline,
			TicklessCycles: tickless,
		}
	}
	return out
}
