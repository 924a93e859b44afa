// Package webserver simulates the Apache-style workload the paper's
// future-work section asks about (§8): "One such example is a web server
// running Apache. Would we see the same performance gains we saw while
// running VolanoMark ...? Would the ELSC scheduler be more effective in
// increasing throughput or decreasing the latency of an Apache web
// server?"
//
// The model is Apache 1.3's process-per-connection architecture: an
// open-loop arrival process feeds an accept queue drained by a pool of
// worker processes, each of which parses the request, serves it from page
// cache or disk, and writes the response through the serialized network
// stack. Unlike VolanoMark, workers share no user-level locks and each
// request touches one task — so the scheduler's share of the work is
// smaller, which is exactly what the experiment measures.
package webserver

import (
	"fmt"

	"elsc/internal/ipc"
	"elsc/internal/kernel"
	"elsc/internal/sim"
	"elsc/internal/stats"
)

// Config sizes the web workload. Zero fields take the defaults.
type Config struct {
	// Workers is the Apache process pool size (default 64).
	Workers int
	// Requests is the total request count to serve (default 20000).
	Requests int
	// ArrivalPeriod is the mean cycles between request arrivals
	// (default 40000 = 10k req/s offered at 400 MHz).
	ArrivalPeriod uint64
}

const (
	// cacheHitRate is the fraction of requests served from page cache.
	cacheHitRate = 0.9
	// diskLatency scales the sleep for a cache miss (7.5 ms seek+read),
	// drawn from [diskLatency/2, 2*diskLatency).
	diskLatency = 3_000_000
	// acceptQueueCap bounds the listen backlog.
	acceptQueueCap = 128
	// netSerialHold is the serialized network-stack portion per
	// response, as in the VolanoMark model.
	netSerialHold = 9_000
)

// The fixed per-request bursts, boxed once and shared by every worker
// (the kernel copies the cycle count out on consumption), so the
// steady-state request loop allocates nothing.
var (
	parseAct   kernel.Action = kernel.Compute{Cycles: 15_000}
	respondAct kernel.Action = kernel.Compute{Cycles: 25_000}
)

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers == 0 {
		out.Workers = 64
	}
	if out.Requests == 0 {
		out.Requests = 20000
	}
	if out.ArrivalPeriod == 0 {
		out.ArrivalPeriod = 40_000
	}
	return out
}

// Server is a constructed web-server workload.
type Server struct {
	cfg    Config
	m      *kernel.Machine
	accept *ipc.Queue

	arrived   int
	served    int
	dropped   int
	latency   stats.Summary
	rng       *sim.RNG
	arrivalEv *sim.Event
}

// New constructs the server and starts the arrival process.
func New(m *kernel.Machine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, m: m, rng: m.RNG().Fork()}
	s.accept = ipc.NewQueue(acceptQueueCap)
	s.accept.Serial = m.NewSerialResource()
	s.accept.SerialHold = netSerialHold
	s.arrivalEv = m.Engine().NewEvent("request-arrival", s.onArrival)

	mm := m.NewMM("httpd")
	for w := 0; w < cfg.Workers; w++ {
		m.Spawn(fmt.Sprintf("httpd/%d", w), mm, s.newWorker())
	}
	s.scheduleArrival()
	return s
}

// scheduleArrival books the next request arrival on the re-armable
// arrival event; arrivals are exponential-ish via a uniform period in
// [p/2, 3p/2].
func (s *Server) scheduleArrival() {
	if s.arrived >= s.cfg.Requests {
		return
	}
	gap := s.rng.Range(s.cfg.ArrivalPeriod/2, s.cfg.ArrivalPeriod*3/2)
	s.m.Engine().ScheduleAfter(s.arrivalEv, gap)
}

// onArrival delivers one request and books the next.
func (s *Server) onArrival(now sim.Time) {
	s.arrived++
	// Stamp the arrival time for latency measurement. If the
	// backlog is full the request is dropped, as listen(2) would.
	if s.accept.Len() < acceptQueueCap {
		s.injectRequest(now)
	} else {
		s.dropped++
	}
	s.scheduleArrival()
}

// injectRequest places a request on the accept queue directly (the
// arrival process is not a simulated task) and wakes a worker.
func (s *Server) injectRequest(now sim.Time) {
	s.accept.Inject(s.m, ipc.Msg{Payload: int64(now)})
}

// newWorker is one Apache process: accept, parse, maybe hit the disk,
// respond, repeat.
func (s *Server) newWorker() kernel.Program {
	phase := 0
	var req ipc.Msg
	disk := &kernel.Sleep{}
	return kernel.ProgramFunc(func(p *kernel.Proc) kernel.Action {
		for {
			switch phase {
			case 0: // accept
				if s.Done() {
					return kernel.Exit{}
				}
				phase = 1
				return s.accept.Recv(p, 8_000, &req)
			case 1: // parse
				phase = 2
				return parseAct
			case 2: // file access
				phase = 3
				if s.rng.Float64() < cacheHitRate {
					continue
				}
				disk.Cycles = s.rng.Range(diskLatency/2, diskLatency*2)
				return disk
			case 3: // respond
				phase = 4
				return respondAct
			case 4: // account completion
				phase = 0
				s.served++
				s.latency.Observe(uint64(s.m.Now()) - uint64(req.Payload))
				if s.Done() {
					// Release workers blocked in accept.
					s.accept.WakeAllReaders(s.m)
					return kernel.Exit{}
				}
			}
		}
	})
}

// Done reports whether every arrived-and-accepted request has been served
// (dropped requests never complete).
func (s *Server) Done() bool {
	return s.arrived >= s.cfg.Requests && s.served+s.dropped >= s.arrived
}

// Dropped returns the requests refused because the backlog was full.
func (s *Server) Dropped() int { return s.dropped }

// Latency summarizes arrival-to-completion time, in cycles, over the
// requests served: its Count is the served count.
func (s *Server) Latency() *stats.Summary { return &s.latency }
