// Package workload unifies the benchmark workloads behind one registry,
// the same way internal/sched unifies the scheduling policies: every
// workload family (VolanoMark chat, kernel compile, Apache-style web
// serving, wake-latency probes, the OLTP database, the wake-storm burst
// benchmark) registers a named Builder that builds an Instance on any
// kernel.Machine. Instance.Run in registry.go is the one place a run is
// measured: it drives the machine to the workload's completion and
// reports a common Result — a throughput metric in a workload-declared
// unit, a completion flag, and name-ordered per-workload extras. A
// workload package only builds its tasks and exposes accessors (Done,
// its operation count, its latency distribution); its registry entry maps
// Params onto the package's Config and names the ops, unit and extras.
// The experiments harness and cmd/sweep drive policy × workload × machine
// matrices through this registry, so adding a scenario is one entry in
// registry.go rather than a cross-cutting change.
package workload

import (
	"elsc/internal/kernel"
)

// Params carries the cross-workload sizing knobs the registry understands.
// Each workload maps them onto its own Config; knobs a workload has no use
// for are ignored (kbuild's build size, for instance, does not scale with
// Work). Callers that size a workload some other way (volano's rooms,
// webserver's offered load, latency's hogs) pass its Config to
// VolanoWith, WebserverWith or LatencyWith and get the same Instance and
// Result — the registry name is the uniform entry, not the only one.
type Params struct {
	// Work is the primary per-actor operation count: messages per user
	// (volano), transactions per client (db), wakes per probe (latency),
	// storms (wakestorm). Zero takes each workload's default.
	Work int
	// Quick selects each workload's reduced shape for tests, CI, and
	// fast sweeps: fewer actors and smaller bursts, same code paths.
	Quick bool
	// ScalableStack selects post-2.3 network-stack costs for the
	// socket-bound workloads (volano), where the 2.3-era serialized
	// stack would otherwise cap every 16+-CPU machine at one socket
	// operation at a time and make every policy measure the same.
	ScalableStack bool
}

// Metric is one named per-workload extra in a Result. Extras are an
// ordered slice, not a map, so rendered tables and determinism digests are
// stable across runs.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Result is the cross-workload measurement Instance.Run reports.
type Result struct {
	// Workload is the registered name that produced this result.
	Workload string `json:"workload"`
	// Seconds is the measured virtual duration of the run.
	Seconds float64 `json:"seconds"`
	// Cycles is the same duration in CPU cycles.
	Cycles uint64 `json:"cycles"`
	// Ops counts completed operations (deliveries, units, requests,
	// wakes, transactions).
	Ops uint64 `json:"ops"`
	// Throughput is Ops per virtual second — the headline metric.
	Throughput float64 `json:"throughput"`
	// Unit names Throughput's unit ("msgs/s", "units/s", "req/s", ...).
	Unit string `json:"unit"`
	// Complete reports whether the workload finished before the
	// machine's horizon; an incomplete run's throughput understates.
	Complete bool `json:"complete"`
	// Extras holds per-workload metrics (tail latencies, lock spins,
	// drop counts) in a fixed order.
	Extras []Metric `json:"extras,omitempty"`
}

// Extra returns the named extra metric and whether it exists.
func (r Result) Extra(name string) (float64, bool) {
	for _, m := range r.Extras {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Builder constructs a workload instance on m, sized by p.
type Builder func(m *kernel.Machine, p Params) Instance

// Workload is one registered workload family.
type Workload struct {
	// Name is the registry key ("volano", "kbuild", ...).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Build constructs an instance on a machine.
	Build Builder
}
