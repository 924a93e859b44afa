package workload

import (
	"sort"

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

// metricsOf sorts a name->value set into deterministic Extras order.
func metricsOf(kv map[string]float64) []Metric {
	names := make([]string, 0, len(kv))
	for n := range kv {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Metric, len(names))
	for i, n := range names {
		out[i] = Metric{Name: n, Value: kv[n]}
	}
	return out
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
		return instance{done: b.Done, run: func() Result {
			r := b.Run()
			return Result{
				Workload:   Volano,
				Seconds:    r.Seconds,
				Cycles:     r.Cycles,
				Ops:        r.Deliveries,
				Throughput: r.Throughput,
				Unit:       "msgs/s",
				Complete:   b.Done(),
				Extras: metricsOf(map[string]float64{
					"threads":    float64(r.Threads),
					"lock_spins": float64(r.LockSpins),
				}),
			}
		}}
	}
}

// buildKBuild maps Params onto the compile: the build's size is the
// experiment (Table 2's fixed tree), so Work is ignored and Quick selects
// a proportionally shrunken tree.
func buildKBuild(m *kernel.Machine, p Params) Instance {
	var cfg kbuild.Config
	if p.Quick {
		cfg = kbuild.Config{Units: 32, MeanCompile: 20_000_000, MeanIO: 200_000}
	}
	return KBuildWith(cfg)(m, p)
}

// KBuildWith is the compile's explicit-config entry (cmd/kcompile's tree
// size and -j flags).
func KBuildWith(cfg kbuild.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		b := kbuild.New(m, cfg)
		return instance{done: b.Done, run: func() Result {
			r := b.Run()
			return Result{
				Workload:   KBuild,
				Seconds:    r.Seconds,
				Cycles:     r.Cycles,
				Ops:        uint64(r.Units),
				Throughput: throughput(uint64(r.Units), r.Seconds),
				Unit:       "units/s",
				Complete:   b.Done(),
				Extras: metricsOf(map[string]float64{
					"jobs":          float64(r.Jobs),
					"build_seconds": r.Seconds,
				}),
			}
		}}
	}
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

// WebserverWith is the web workload's explicit-config entry (cmd/websim's
// offered-load flags).
func WebserverWith(cfg webserver.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		s := webserver.New(m, cfg)
		return instance{done: s.Done, run: func() Result {
			r := s.Run()
			return Result{
				Workload:   WebServer,
				Seconds:    r.Seconds,
				Cycles:     uint64(r.Seconds * float64(m.Hz())),
				Ops:        uint64(r.Served),
				Throughput: r.Throughput,
				Unit:       "req/s",
				Complete:   s.Done(),
				Extras: metricsOf(map[string]float64{
					"dropped":     float64(r.Dropped),
					"mean_lat_ms": r.MeanLatMS,
					"max_lat_ms":  r.MaxLatMS,
				}),
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
// probes).
func LatencyWith(cfg latency.Config) Builder {
	return func(m *kernel.Machine, _ Params) Instance {
		pr := latency.New(m, cfg)
		return instance{done: pr.Done, run: func() Result {
			start := m.Now()
			r := pr.Run()
			elapsed := uint64(m.Now() - start)
			secs := float64(elapsed) / float64(m.Hz())
			return Result{
				Workload:   Latency,
				Seconds:    secs,
				Cycles:     elapsed,
				Ops:        r.Samples,
				Throughput: throughput(r.Samples, secs),
				Unit:       "wakes/s",
				Complete:   pr.Done(),
				Extras: metricsOf(map[string]float64{
					"hogs":    float64(r.Hogs),
					"mean_us": r.MeanUS,
					"p99_us":  r.P99US,
					"max_us":  r.MaxUS,
				}),
			}
		}}
	}
}

// buildDB maps Params onto the OLTP workload: Work is transactions per
// client, Quick shrinks the connection pool.
func buildDB(m *kernel.Machine, p Params) Instance {
	cfg := db.Config{TxnsPerClient: p.Work}
	if p.Quick {
		cfg.Clients = 8
		if p.Work == 0 {
			cfg.TxnsPerClient = 50
		}
	}
	d := db.New(m, cfg)
	return instance{done: d.Done, run: func() Result {
		r := d.Run()
		return Result{
			Workload:   DB,
			Seconds:    r.Seconds,
			Cycles:     r.Cycles,
			Ops:        r.Txns,
			Throughput: r.Throughput,
			Unit:       "txns/s",
			Complete:   d.Done(),
			Extras: metricsOf(map[string]float64{
				"mean_txn_us":  r.MeanTxnUS,
				"p99_txn_us":   r.P99TxnUS,
				"lock_spins":   float64(r.LockSpins),
				"lock_blocked": float64(r.LockBlocked),
				"wal_waits":    float64(r.WALWaits),
			}),
		}
	}}
}

// buildWakeStorm maps Params onto the mass-wakeup benchmark: Work is the
// storm count, Quick shrinks the herd.
func buildWakeStorm(m *kernel.Machine, p Params) Instance {
	cfg := latency.StormConfig{Storms: p.Work}
	if p.Quick {
		cfg.Waiters = 16
		if p.Work == 0 {
			cfg.Storms = 30
		}
	}
	st := latency.NewStorm(m, cfg)
	return instance{done: st.Done, run: func() Result {
		r := st.Run()
		return Result{
			Workload:   WakeStorm,
			Seconds:    r.Seconds,
			Cycles:     r.Cycles,
			Ops:        r.Wakes,
			Throughput: r.WakesPerSec,
			Unit:       "wakes/s",
			Complete:   st.Done(),
			Extras: metricsOf(map[string]float64{
				"waiters": float64(r.Waiters),
				"storms":  float64(r.Storms),
				"mean_us": r.MeanUS,
				"p50_us":  r.P50US,
				"p99_us":  r.P99US,
				"max_us":  r.MaxUS,
			}),
		}
	}}
}
