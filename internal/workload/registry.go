package workload

import (
	"elsc/internal/kernel"
	"elsc/internal/task"
	"elsc/internal/workload/db"
	"elsc/internal/workload/kbuild"
	"elsc/internal/workload/latency"
	"elsc/internal/workload/volano"
	"elsc/internal/workload/webserver"
)

// Workload names, as the sweep tables label them.
const (
	Volano    = "volano"
	KBuild    = "kbuild"
	WebServer = "webserver"
	Latency   = "latency"
	DB        = "db"
	WakeStorm = "wakestorm"
)

// Registry lists every registered workload in table order. The matrix
// runner, the determinism regression, and the cross-workload smoke tests
// all iterate this list, so a workload registered here is automatically
// raced against every policy and held to the same completion and
// determinism bar.
var Registry = []Workload{
	{Name: Volano, Description: "VolanoMark chat: thread herds, yield locks, loopback ping-pong", Build: buildVolano},
	{Name: KBuild, Description: "make -j4 kernel compile: light-load control", Build: buildKBuild},
	{Name: WebServer, Description: "Apache-style process-per-connection web serving", Build: buildWebserver},
	{Name: Latency, Description: "steady wake-to-dispatch latency probes under hog load", Build: buildLatency},
	{Name: DB, Description: "syscall-heavy OLTP: lock stripes, buffer pool, WAL, checkpoints", Build: buildDB},
	{Name: WakeStorm, Description: "synchronized mass wake-ups: wakeup-to-run tail latency", Build: buildWakeStorm},
}

// Names returns the registered workload names in registry order.
func Names() []string {
	out := make([]string, len(Registry))
	for i, w := range Registry {
		out[i] = w.Name
	}
	return out
}

// ByName returns the named workload, or panics: workload names come from
// the registry itself or from CLI validation, so a miss is a harness bug.
func ByName(name string) Workload {
	for _, w := range Registry {
		if w.Name == name {
			return w
		}
	}
	panic("workload: unknown workload " + name)
}

// Build constructs the named workload on m, sized by p.
func Build(name string, m *kernel.Machine, p Params) Instance {
	return ByName(name).Build(m, p)
}

// Instance is a workload built on a machine, ready to run. It holds what
// the one measurement needs from the workload: its completion test, and a
// report of the run's operation count and extras, read once the run stops.
type Instance struct {
	m    *kernel.Machine
	name string // the registry name, Result.Workload
	unit string // Result.Unit
	done func() bool
	// report returns the run's Ops and its extras in name order; secs
	// is the run's measured duration.
	report func(secs float64) (uint64, []Metric)
}

// Done reports whether the workload has completed, usable as a
// machine.Run stop condition by harnesses that drive the machine
// themselves.
func (i Instance) Done() bool { return i.done() }

// Run drives the machine until the workload completes or the horizon
// passes, and measures the run: every workload's Result comes from here.
func (i Instance) Run() Result {
	start := i.m.Now()
	i.m.Run(i.done)
	elapsed := uint64(i.m.Now() - start)
	secs := float64(elapsed) / float64(i.m.Hz())
	ops, extras := i.report(secs)
	return Result{
		Workload:   i.name,
		Seconds:    secs,
		Cycles:     elapsed,
		Ops:        ops,
		Throughput: throughput(ops, secs),
		Unit:       i.unit,
		Complete:   i.done(),
		Extras:     extras,
	}
}

// throughput guards the division for runs cut off at time zero.
func throughput(ops uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(ops) / secs
}

// buildVolano maps Params onto the chat benchmark: Work is messages per
// user, Quick shrinks the rooms, ScalableStack selects the post-2.3
// socket stack.
func buildVolano(m *kernel.Machine, p Params) Instance {
	cfg := volano.Config{MessagesPerUser: p.Work, ScalableStack: p.ScalableStack}
	if p.Quick {
		cfg.Rooms = 2
		cfg.UsersPerRoom = 4
	}
	return VolanoWith(cfg)(m, p)
}

// VolanoWith is the chat benchmark's explicit-config entry: a Builder
// that runs cfg as given, ignoring Params. The figure cells that size the
// rooms themselves get the same Instance and Result the registry name
// does.
func VolanoWith(cfg volano.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		b := volano.Build(m, cfg)
		return Instance{m, Volano, "msgs/s", b.Done, func(float64) (uint64, []Metric) {
			return b.Deliveries(), []Metric{
				{"lock_spins", float64(b.LockSpins())},
				{"threads", float64(b.Threads())},
			}
		}}
	}
}

// buildKBuild maps Params onto the compile: the build's size is the
// experiment (Table 2's fixed tree), so Work is ignored and Quick selects
// a proportionally shrunken tree. Ops is the tree's unit count.
func buildKBuild(m *kernel.Machine, p Params) Instance {
	var cfg kbuild.Config
	if p.Quick {
		cfg = kbuild.Config{Units: 32, MeanCompile: 20_000_000, MeanIO: 200_000}
	}
	b := kbuild.New(m, cfg)
	return Instance{m, KBuild, "units/s", b.Done, func(secs float64) (uint64, []Metric) {
		return uint64(b.Config().Units), []Metric{
			{"build_seconds", secs},
			{"jobs", float64(kbuild.Jobs)},
		}
	}}
}

// buildWebserver maps Params onto the open-loop web workload: Quick
// shrinks the request count; the offered load is the experiment, so Work
// is ignored.
func buildWebserver(m *kernel.Machine, p Params) Instance {
	var cfg webserver.Config
	if p.Quick {
		cfg = webserver.Config{Requests: 2000}
	}
	return WebserverWith(cfg)(m, p)
}

// WebserverWith is the web workload's explicit-config entry (the
// facade's RunWebServer). Ops is the requests served.
func WebserverWith(cfg webserver.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		s := webserver.New(m, cfg)
		return Instance{m, WebServer, "req/s", s.Done, func(float64) (uint64, []Metric) {
			lat, toMS := s.Latency(), 1000.0/float64(m.Hz())
			return lat.Count(), []Metric{
				{"dropped", float64(s.Dropped())},
				{"max_lat_ms", float64(lat.Max()) * toMS},
				{"mean_lat_ms", lat.Mean() * toMS},
			}
		}}
	}
}

// buildLatency maps Params onto the steady-state probe workload: Work is
// wakes per probe, Quick shrinks the wake count. The matrix cell runs
// nice-0 probes (the same static priority as the hogs) — the regime the
// 2.5 interactivity estimator was built for, where only a scheduler's
// dynamic priority can tell an interactive task from a CPU hog. Direct
// users of the latency package keep its max-priority default, which
// isolates the raw wake path instead.
func buildLatency(m *kernel.Machine, p Params) Instance {
	cfg := latency.Config{WakesPerProbe: p.Work, ProbePriority: task.DefaultPriority}
	if p.Quick && p.Work == 0 {
		cfg.WakesPerProbe = 50
	}
	return LatencyWith(cfg)(m, p)
}

// LatencyWith is the probe workload's explicit-config entry (the
// wake-latency extension's hog sweep, at the package's max-priority
// probes). Ops is the wake samples.
func LatencyWith(cfg latency.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		pr := latency.New(m, cfg)
		return Instance{m, Latency, "wakes/s", pr.Done, func(float64) (uint64, []Metric) {
			lat, toUS := pr.Latency(), 1e6/float64(m.Hz())
			return lat.Count(), []Metric{
				{"hogs", float64(pr.Config().Hogs)},
				{"max_us", float64(lat.Max()) * toUS},
				{"mean_us", lat.Mean() * toUS},
				{"p99_us", float64(lat.ApproxPercentile(0.99)) * toUS},
			}
		}}
	}
}

// buildDB maps Params onto the OLTP workload: Work is transactions per
// client, Quick shrinks the connection pool. Ops is the commits.
func buildDB(m *kernel.Machine, p Params) Instance {
	cfg := db.Config{TxnsPerClient: p.Work}
	if p.Quick {
		cfg.Clients = 8
		if p.Work == 0 {
			cfg.TxnsPerClient = 50
		}
	}
	d := db.New(m, cfg)
	return Instance{m, DB, "txns/s", d.Done, func(float64) (uint64, []Metric) {
		lat, toUS := d.TxnLatency(), 1e6/float64(m.Hz())
		return lat.Count(), []Metric{
			{"lock_blocked", float64(d.LockBlocked())},
			{"lock_spins", float64(d.LockSpins())},
			{"mean_txn_us", lat.Mean() * toUS},
			{"p99_txn_us", float64(lat.ApproxPercentile(0.99)) * toUS},
			{"wal_waits", float64(d.WALWaits())},
		}
	}}
}

// buildWakeStorm maps Params onto the mass-wakeup benchmark: Work is the
// storm count, Quick shrinks the herd. Ops is the wake-ups delivered.
func buildWakeStorm(m *kernel.Machine, p Params) Instance {
	cfg := latency.StormConfig{Storms: p.Work}
	if p.Quick {
		cfg.Waiters = 16
		if p.Work == 0 {
			cfg.Storms = 30
		}
	}
	st := latency.NewStorm(m, cfg)
	return Instance{m, WakeStorm, "wakes/s", st.Done, func(float64) (uint64, []Metric) {
		c, lat, toUS := st.Config(), st.Latency(), 1e6/float64(m.Hz())
		return lat.Count(), []Metric{
			{"max_us", float64(lat.Max()) * toUS},
			{"mean_us", lat.Mean() * toUS},
			{"p50_us", float64(lat.ApproxPercentile(0.50)) * toUS},
			{"p99_us", float64(lat.ApproxPercentile(0.99)) * toUS},
			{"storms", float64(c.Storms)},
			{"waiters", float64(c.Waiters)},
		}
	}}
}
