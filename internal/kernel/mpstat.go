package kernel

import (
	"fmt"
	"strings"
)

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
		offline := c.offlineAccum
		if !c.online {
			offline += uint64(m.eng.Now() - c.offlineFrom)
		}
		tickless := c.ticklessAccum
		if c.online && c.tickParked {
			tickless += uint64(m.eng.Now() - c.ticklessFrom)
		}
		out[i] = CPUStat{
			CPU:            i,
			WorkCycles:     c.work,
			IdleCycles:     idle,
			Dispatches:     c.dispatches,
			Online:         c.online,
			Offlines:       c.offlines,
			OfflineCycles:  offline,
			TicklessCycles: tickless,
		}
	}
	return out
}

// MPStat renders the per-CPU table. The hotplug and tickless columns
// appear only on runs that exercised them (some CPU went offline, some
// chain parked), so prior output is unchanged.
func (m *Machine) MPStat() string {
	elapsed := uint64(m.eng.Now())
	stats := m.CPUStats()
	hotplug, tickless := false, false
	for _, s := range stats {
		hotplug = hotplug || s.Offlines > 0
		tickless = tickless || s.TicklessCycles > 0
	}
	columns := []struct {
		show       bool
		name       string
		head, cell string // header and per-CPU cell formats
		value      func(s CPUStat) any
	}{
		{true, "CPU", "%4s", "%4d", func(s CPUStat) any { return s.CPU }},
		{true, "WORK", " %14s", " %14d", func(s CPUStat) any { return s.WorkCycles }},
		{true, "IDLE", " %14s", " %14d", func(s CPUStat) any { return s.IdleCycles }},
		{true, "DISPATCH", " %10s", " %10d", func(s CPUStat) any { return s.Dispatches }},
		{true, "UTIL", " %7s", " %6.1f%%", func(s CPUStat) any { return 100 * s.Utilization(elapsed) }},
		{hotplug, "STATE", " %6s", " %6s", func(s CPUStat) any { return onOff(s.Online) }},
		{hotplug, "OFFLINE", " %14s", " %14d", func(s CPUStat) any { return s.OfflineCycles }},
		{tickless, "TICKLESS", " %14s", " %14d", func(s CPUStat) any { return s.TicklessCycles }},
	}
	var b strings.Builder
	for _, c := range columns {
		if c.show {
			fmt.Fprintf(&b, c.head, c.name)
		}
	}
	b.WriteByte('\n')
	for _, s := range stats {
		for _, c := range columns {
			if c.show {
				fmt.Fprintf(&b, c.cell, c.value(s))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// onOff renders a CPU's hotplug state.
func onOff(online bool) string {
	if online {
		return "on"
	}
	return "off"
}
