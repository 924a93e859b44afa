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
	fmt.Printf("threads: %d\n", res.Threads)
	fmt.Printf("deliveries: %d\n", res.Deliveries)
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
		fmt.Printf("%s delivered %d\n", kind, res.Deliveries)
	}
	// Output:
	// reg delivered 80
	// elsc delivered 80
}

// ExampleNewQueue demonstrates blocking IPC between two custom tasks.
func ExampleNewQueue() {
	m := elsc.NewMachine(elsc.MachineConfig{CPUs: 1, Seed: 1})
	q := elsc.NewQueue("pipe", 2)

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
