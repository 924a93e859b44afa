package kernel

import (
	"fmt"
	"sort"
	"strings"
)

// PS renders a ps/top-style table of every task in the system. The paper
// notes that under Linux's one-to-one thread model "all processes and
// threads are visible in various system status commands such as ps and
// top" — this is that view of the simulated machine, useful for examples
// and debugging workloads.
func (m *Machine) PS() string {
	procs := append([]*Proc(nil), m.procs...)
	sort.Slice(procs, func(i, j int) bool {
		return procs[i].Task.UserCycles+procs[i].Task.SystemCycles >
			procs[j].Task.UserCycles+procs[j].Task.SystemCycles
	})

	var b strings.Builder
	fmt.Fprintf(&b, "%5s %-20s %-14s %4s %4s %10s %10s %7s %6s %s\n",
		"PID", "NAME", "STATE", "PRI", "CNT", "USER", "SYS", "SWITCH", "MIGR", "MM")
	for _, p := range procs {
		t := p.Task
		state := t.State.String()
		if p.exited {
			state = "exited"
		} else if t.HasCPU {
			state = fmt.Sprintf("on-cpu%d", t.Processor)
		}
		mm := "-"
		if t.MM != nil {
			mm = t.MM.Name
		}
		pri := fmt.Sprintf("%d", t.Priority)
		if t.RealTime() {
			pri = fmt.Sprintf("rt%d", t.RTPriority)
		}
		fmt.Fprintf(&b, "%5d %-20s %-14s %4s %4d %10d %10d %7d %6d %s\n",
			t.ID, clip(t.Name, 20), state, pri, t.RawCounter(),
			t.UserCycles, t.SystemCycles,
			t.VolSwitches+t.InvSwitches, t.Migrations, mm)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "~"
}
