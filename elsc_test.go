package elsc_test

import (
	"strings"
	"testing"

	"elsc"
	"elsc/internal/experiments"
)

func TestQuickstartFlow(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 2, SMP: true, Scheduler: elsc.ELSC, Seed: 7})
	res := m.RunVolanoMark(elsc.VolanoConfig{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 3})
	if res.Deliveries == 0 || res.Throughput <= 0 {
		t.Fatalf("benchmark produced nothing: %+v", res)
	}
	if m.SchedulerName() != "elsc" {
		t.Fatalf("scheduler = %q", m.SchedulerName())
	}
	if !strings.Contains(m.Stats().Registry().Render(), "sched_calls") {
		t.Fatal("procstat missing counters")
	}
	if m.Stats().SchedCalls == 0 {
		t.Fatal("no schedule() calls recorded")
	}
}

func TestAllSchedulerKinds(t *testing.T) {
	for _, policy := range experiments.Policies {
		kind := elsc.SchedulerKind(policy)
		m := elsc.NewMachine(elsc.MachineConfig{CPUs: 2, SMP: true, Scheduler: kind, Seed: 3})
		res := m.RunVolanoMark(elsc.VolanoConfig{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 2})
		want := uint64(1 * 4 * 4 * 2)
		if res.Deliveries != want {
			t.Fatalf("%s: deliveries %d, want %d", kind, res.Deliveries, want)
		}
	}
}

func TestSpawnCustomProgram(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	n := 0
	tk := m.Spawn("custom", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if n >= 3 {
			return elsc.Exit{}
		}
		n++
		return elsc.Compute{Cycles: 1000}
	}))
	m.RunUntilAllExit()
	if !tk.Exited() {
		t.Fatal("task did not exit")
	}
	if tk.UserCycles() != 3000 {
		t.Fatalf("user cycles = %d, want 3000", tk.UserCycles())
	}
}

func TestCustomIPCWorkload(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	q := elsc.NewQueue(4)
	var got elsc.Msg
	prodDone, consDone := false, false
	sent := 0
	m.Spawn("producer", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if sent >= 5 {
			prodDone = true
			return elsc.Exit{}
		}
		sent++
		return q.Send(p, 500, elsc.Msg{Seq: sent})
	}))
	recvd := 0
	m.Spawn("consumer", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if recvd >= 5 {
			consDone = true
			return elsc.Exit{}
		}
		recvd++
		return q.Recv(p, 500, &got)
	}))
	m.Run(func() bool { return prodDone && consDone })
	if got.Seq != 5 {
		t.Fatalf("last message seq = %d, want 5", got.Seq)
	}
}

func TestRealTimeSpawn(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	reg := m.Spawn("reg", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		return elsc.Exit{}
	}))
	n := 0
	rt := m.SpawnRT("rt", elsc.FIFO, 50, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if n >= 2 {
			return elsc.Exit{}
		}
		n++
		return elsc.Compute{Cycles: 500}
	}))
	m.RunUntilAllExit()
	if !rt.Exited() || !reg.Exited() {
		t.Fatal("tasks did not finish")
	}
}

func TestKernelBuildWorkload(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 2, SMP: true, Seed: 2})
	res := m.RunWorkload("kbuild", elsc.WorkloadParams{Quick: true})
	if !res.Complete || res.Ops != 32 || res.Seconds <= 0 {
		t.Fatalf("bad build result: %+v", res)
	}
}

func TestWebServerWorkload(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 2, SMP: true, Scheduler: elsc.Vanilla, Seed: 2})
	res := m.RunWebServer(elsc.WebServerConfig{Workers: 6, Requests: 100})
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{})
	if m.SchedulerName() != "elsc" {
		t.Fatalf("default scheduler = %q, want elsc", m.SchedulerName())
	}
}

func TestSetPriority(t *testing.T) {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	busy := 0
	tk := m.Spawn("w", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if busy >= 2 {
			return elsc.Exit{}
		}
		busy++
		return elsc.Compute{Cycles: 100}
	}))
	m.SetPriority(tk, 40)
	m.RunUntilAllExit()
	if !tk.Exited() {
		t.Fatal("task did not run after priority change")
	}
}

func TestDeterminismAcrossMachines(t *testing.T) {
	run := func() float64 {
		m := elsc.NewMachine(elsc.MachineConfig{CPUs: 4, SMP: true, Scheduler: elsc.Vanilla, Seed: 11})
		return m.RunVolanoMark(elsc.VolanoConfig{Rooms: 2, UsersPerRoom: 4, MessagesPerUser: 3}).Throughput
	}
	if run() != run() {
		t.Fatal("same seed produced different throughput")
	}
}

func TestFacadeHotplugAndWatchdog(t *testing.T) {
	var violations []elsc.WatchdogViolation
	m := elsc.NewMachine(elsc.MachineConfig{
		CPUs: 4, SMP: true, Scheduler: elsc.O1, Seed: 9,
		Watchdog: &elsc.WatchdogConfig{
			OnViolation: func(v elsc.WatchdogViolation) { violations = append(violations, v) },
		},
	})
	if err := m.OfflineCPU(2); err != nil {
		t.Fatal(err)
	}
	if err := m.OfflineCPU(2); err != elsc.ErrCPUOffline {
		t.Fatalf("double offline: err = %v, want ErrCPUOffline", err)
	}
	res := m.RunVolanoMark(elsc.VolanoConfig{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 3})
	if res.Deliveries == 0 {
		t.Fatal("three survivors delivered nothing")
	}
	if err := m.OnlineCPU(2); err != nil {
		t.Fatal(err)
	}
	if err := m.OnlineCPU(2); err != elsc.ErrCPUOnline {
		t.Fatalf("double online: err = %v, want ErrCPUOnline", err)
	}
	if len(violations) != 0 {
		t.Fatalf("watchdog fired on a healthy run: %s", violations[0])
	}
	reg := m.Stats().Registry().Render()
	for _, line := range []string{"watchdog_starvations 0", "cpu_offlines 1", "cpu_onlines 1"} {
		if !strings.Contains(reg, line) {
			t.Fatalf("stats registry missing %q:\n%s", line, reg)
		}
	}
}
