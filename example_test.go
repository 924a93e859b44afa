package elsc_test

import (
	"fmt"

	"elsc"
)

// ExampleNewMachine runs the paper's headline benchmark on a tiny
// configuration and prints deterministic results.
func ExampleNewMachine() {
	m := elsc.NewMachine(elsc.MachineConfig{
		CPUs:      1,
		Scheduler: elsc.ELSC,
		Seed:      42,
	})
	res := m.RunVolanoMark(elsc.VolanoConfig{
		Rooms:           1,
		UsersPerRoom:    4,
		MessagesPerUser: 3,
	})
	threads, _ := res.Extra("threads")
	fmt.Printf("threads: %.0f\n", threads)
	fmt.Printf("deliveries: %d\n", res.Ops)
	// Output:
	// threads: 16
	// deliveries: 48
}

// ExampleMachine_Spawn shows a custom task program: compute, sleep,
// repeat, exit.
func ExampleMachine_Spawn() {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	rounds := 0
	t := m.Spawn("worker", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if rounds >= 2 {
			return elsc.Exit{}
		}
		rounds++
		return elsc.Compute{Cycles: 1000}
	}))
	m.RunUntilAllExit()
	fmt.Printf("exited: %v, user cycles: %d\n", t.Exited(), t.UserCycles())
	// Output:
	// exited: true, user cycles: 2000
}

// ExampleMachine_RunVolanoMark compares the stock and ELSC schedulers on
// the same workload and seed: the deliveries match, the scheduler effort
// does not.
func ExampleMachine_RunVolanoMark() {
	cfg := elsc.VolanoConfig{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 5}
	for _, kind := range []elsc.SchedulerKind{elsc.Vanilla, elsc.ELSC} {
		m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Scheduler: kind, Seed: 9})
		res := m.RunVolanoMark(cfg)
		fmt.Printf("%s delivered %d\n", kind, res.Ops)
	}
	// Output:
	// reg delivered 80
	// elsc delivered 80
}

// ExampleNewQueue demonstrates blocking IPC between two custom tasks.
func ExampleNewQueue() {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	q := elsc.NewQueue(2)

	sent := 0
	m.Spawn("producer", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		if sent >= 3 {
			return elsc.Exit{}
		}
		sent++
		return q.Send(p, 500, elsc.Msg{Seq: sent})
	}))

	var got elsc.Msg
	sum := 0
	recvd := 0
	m.Spawn("consumer", nil, elsc.ProgramFunc(func(p *elsc.Proc) elsc.Action {
		sum += got.Seq
		if recvd >= 3 {
			return elsc.Exit{}
		}
		recvd++
		return q.Recv(p, 500, &got)
	}))
	m.RunUntilAllExit()
	fmt.Printf("sum of received seqs: %d\n", sum)
	// Output:
	// sum of received seqs: 6
}

// Example_quickstart builds a 4-processor machine running the ELSC
// scheduler, runs a 10-room VolanoMark, and prints the paper's headline
// statistics.
func Example_quickstart() {
	m := elsc.NewMachine(elsc.MachineConfig{
		CPUs:      4,
		SMP:       true,
		Scheduler: elsc.ELSC,
		Seed:      42,
	})

	res := m.RunVolanoMark(elsc.VolanoConfig{
		Rooms:           10,
		UsersPerRoom:    20,
		MessagesPerUser: 30,
	})

	threads, _ := res.Extra("threads")
	fmt.Printf("VolanoMark on %s: %.0f threads, %d deliveries in %.2f virtual seconds\n",
		m.SchedulerName(), threads, res.Ops, res.Seconds)
	fmt.Printf("throughput: %.0f messages/second\n\n", res.Throughput)

	s := m.Stats()
	fmt.Printf("schedule() was called %d times\n", s.SchedCalls)
	fmt.Printf("mean cost: %.0f cycles and %.1f tasks examined per call\n",
		s.CyclesPerSchedule(), s.ExaminedPerSchedule())
	fmt.Printf("counter recalculations: %d\n", s.Recalcs)
	fmt.Printf("cross-CPU migrations: %d\n", s.Migrations)
	// Output:
	// VolanoMark on elsc: 800 threads, 120000 deliveries in 15.47 virtual seconds
	// throughput: 7759 messages/second
	//
	// schedule() was called 907167 times
	// mean cost: 1841 cycles and 2.5 tasks examined per call
	// counter recalculations: 1
	// cross-CPU migrations: 222520
}

// Example_webserver asks the paper's future-work question (§8): run an
// Apache-style workload under the stock and ELSC schedulers and compare
// throughput and latency.
func Example_webserver() {
	fmt.Println("Apache-style workload, 2 CPUs, 64 workers, open-loop arrivals")
	fmt.Println()
	fmt.Printf("%-8s %10s %14s %14s\n", "sched", "req/s", "mean lat (ms)", "max lat (ms)")
	for _, kind := range []elsc.SchedulerKind{elsc.Vanilla, elsc.ELSC} {
		m := elsc.NewMachine(elsc.MachineConfig{
			CPUs:      2,
			SMP:       true,
			Scheduler: kind,
			Seed:      42,
		})
		res := m.RunWebServer(elsc.WebServerConfig{
			Workers:  64,
			Requests: 8000,
		})
		meanLat, _ := res.Extra("mean_lat_ms")
		maxLat, _ := res.Extra("max_lat_ms")
		fmt.Printf("%-8s %10.0f %14.2f %14.2f\n", kind, res.Throughput, meanLat, maxLat)
	}
	fmt.Println()
	fmt.Println("The paper asked whether ELSC would raise throughput or cut latency")
	fmt.Println("here. With one task per request and no yield storms, the scheduler")
	fmt.Println("is a small cost either way — the gains are far smaller than")
	fmt.Println("VolanoMark's, mostly visible in tail latency under load spikes.")
	// Output:
	// Apache-style workload, 2 CPUs, 64 workers, open-loop arrivals
	//
	// sched         req/s  mean lat (ms)   max lat (ms)
	// reg            9946           1.93         529.25
	// elsc           9909           1.01          15.92
	//
	// The paper asked whether ELSC would raise throughput or cut latency
	// here. With one task per request and no yield storms, the scheduler
	// is a small cost either way — the gains are far smaller than
	// VolanoMark's, mostly visible in tail latency under load spikes.
}
