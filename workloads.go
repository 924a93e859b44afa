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
// Config for bespoke shapes. All three return the registry's one
// measurement, WorkloadResult.

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

// RunVolanoMark builds and runs the chat benchmark on the machine. The
// result's Throughput is the paper's messages-per-second metric, its Ops
// the deliveries, and its extras threads and lock_spins.
func (m *Machine) RunVolanoMark(cfg VolanoConfig) WorkloadResult {
	return workload.VolanoWith(cfg)(m.m, WorkloadParams{}).Run()
}

// WebServerConfig sizes the §8 future-work Apache-style workload: Workers
// processes serving Requests requests that arrive every ArrivalPeriod
// cycles on average; the cache hit rate and cycle prices are fixed
// calibration.
type WebServerConfig = webserver.Config

// RunWebServer builds and runs the web workload on the machine. The
// result's Throughput is requests served per second, its Ops the requests
// served, and its extras dropped, mean_lat_ms and max_lat_ms.
func (m *Machine) RunWebServer(cfg WebServerConfig) WorkloadResult {
	return workload.WebserverWith(cfg)(m.m, WorkloadParams{}).Run()
}
