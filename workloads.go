package elsc

import (
	"elsc/internal/workload"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// The workload layer has two entry points, mirroring the scheduler layer:
// the registry runs any workload by name with uniform sizing knobs
// (RunWorkload — what the sweep matrix and the determinism suite use),
// and RunVolanoMark and RunWebServer take the chat and web benchmarks'
// Config for bespoke shapes.

// WorkloadParams sizes a registry-run workload: Work is the per-actor
// operation count, Quick selects the reduced shape, ScalableStack the
// post-2.3 network costs.
type WorkloadParams = workload.Params

// WorkloadResult is the registry's common measurement: throughput in a
// workload-declared unit, a completion flag, and ordered extras.
type WorkloadResult = workload.Result

// Workloads returns the registered workload names, in registry order:
// volano, kbuild, webserver, latency, db, wakestorm.
func Workloads() []string { return workload.Names() }

// RunWorkload builds and runs any registered workload by name on the
// machine, returning the common result. Unknown names panic; use
// Workloads for the valid set.
func (m *Machine) RunWorkload(name string, p WorkloadParams) WorkloadResult {
	return workload.Build(name, m.m, p).Run()
}

// VolanoConfig sizes a VolanoMark run (paper §4/§6): Rooms chat rooms of
// UsersPerRoom users, each sending MessagesPerUser messages that the
// server broadcasts to the whole room over loopback connections carrying
// four threads each. ScalableStack swaps the 2.3-era big-lock network
// stack for per-socket lock holds; every cycle price is fixed calibration.
type VolanoConfig = volano.Config

// VolanoResult is a VolanoMark measurement; Throughput is the paper's
// messages-per-second metric.
type VolanoResult = volano.Result

// RunVolanoMark builds and runs the chat benchmark on the machine.
func (m *Machine) RunVolanoMark(cfg VolanoConfig) VolanoResult {
	return volano.Build(m.m, cfg).Run()
}

// WebServerConfig sizes the §8 future-work Apache-style workload: Workers
// processes serving Requests requests that arrive every ArrivalPeriod
// cycles on average; the cache hit rate and cycle prices are fixed
// calibration.
type WebServerConfig = webserver.Config

// WebServerResult reports webserver throughput and latency.
type WebServerResult = webserver.Result

// RunWebServer builds and runs the web workload on the machine.
func (m *Machine) RunWebServer(cfg WebServerConfig) WebServerResult {
	return webserver.New(m.m, cfg).Run()
}
