package kernel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/o1"
	"elsc/internal/stats"
	"elsc/internal/workload/volano"
)

// oracleRender is the registry renderer the schema replaced, kept as the
// readable reference: every line into a map in producer order, the names
// sorted, each line formatted through fmt. It returns the rendering and
// the names it rendered.
func oracleRender(s *kernel.Stats) (string, []string) {
	counters := map[string]uint64{}
	set := func(name string, v uint64) { counters[name] = v }
	set("sched_calls", s.SchedCalls)
	set("sched_cycles", s.SchedCycles)
	set("sched_lock_spin_cycles", s.SpinCycles)
	set("sched_tasks_examined", s.Examined)
	set("sched_recalc_entries", s.Recalcs)
	set("sched_migrations", s.Migrations)
	set("sched_cross_domain_migrations", s.CrossDomainMigrations)
	set("sched_idle_switches", s.IdleSwitches)
	set("sched_preemptions", s.Preemptions)
	set("wake_calls", s.WakeCalls)
	set("yield_calls", s.YieldCalls)
	set("quantum_expiries", s.QuantumExpiry)
	set("wake_idle_placements", s.WakeIdlePlacements)
	set("timeslice_rotations", s.TimesliceRotations)
	set("tick_preemptions", s.TickPreemptions)
	set("ctx_switches", s.CtxSwitches)
	set("mm_switches", s.MMSwitches)
	set("cache_refill_cycles", s.CacheCycles)
	set("remote_access_cycles", s.RemoteCycles)
	set("task_cycles", s.TaskCycles)
	set("syscall_cycles", s.SyscallCycles)
	set("idle_cycles", s.IdleCycles)
	set("tick_cycles", s.TickCycles)
	set("rq_lock_acquisitions", s.LockAcquisitions)
	set("rq_lock_contended", s.LockContended)
	set("policy_switches", s.PolicySwitches)
	if s.CPUOfflines != 0 || s.CPUOnlines != 0 {
		set("cpu_offlines", s.CPUOfflines)
		set("cpu_onlines", s.CPUOnlines)
		set("cpu_offline_cycles", s.OfflineCycles)
	}
	if s.WatchdogEnabled {
		set("watchdog_starvations", s.WatchdogStarvations)
		set("watchdog_invariant_faults", s.WatchdogInvariantFaults)
	}
	if s.TicksSkipped != 0 || s.IdleTickRescues != 0 {
		set("ticks_skipped", s.TicksSkipped)
		set("idle_tick_rescues", s.IdleTickRescues)
	}
	set("events_fired", s.EventsFired)
	set("events_wheel", s.EventsWheel)
	set("events_heap", s.EventsHeap)
	dists := map[string]stats.Summary{
		"cycles_per_schedule":   s.PerSchedule,
		"examined_per_schedule": s.ExaminedDist,
	}
	var names []string
	for name := range counters {
		names = append(names, name)
	}
	for name := range dists {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if c, ok := counters[name]; ok {
			fmt.Fprintf(&b, "%s %d\n", name, c)
		}
		if d, ok := dists[name]; ok {
			fmt.Fprintf(&b, "%s count=%d mean=%.1f min=%d max=%d\n",
				name, d.Count(), d.Mean(), d.Min(), d.Max())
		}
	}
	return b.String(), names
}

// randomStats fills every counter of a Stats with a value of random
// magnitude (zero one time in eight), then sets each conditional group on
// or off by the low bits of groups.
func randomStats(rng *rand.Rand, groups int) *kernel.Stats {
	s := new(kernel.Stats)
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 && rng.Intn(8) != 0 {
			f.SetUint(rng.Uint64() >> rng.Intn(64))
		}
	}
	// Hotplug and tickless each switch on from either of two counters.
	if groups&1 == 0 {
		s.CPUOfflines, s.CPUOnlines = 0, 0
	} else if rng.Intn(2) == 0 {
		s.CPUOfflines, s.CPUOnlines = 0, 1+uint64(rng.Intn(9))
	} else {
		s.CPUOfflines = 1 + uint64(rng.Intn(9))
	}
	s.WatchdogEnabled = groups&2 != 0
	if groups&4 == 0 {
		s.TicksSkipped, s.IdleTickRescues = 0, 0
	} else if rng.Intn(2) == 0 {
		s.TicksSkipped, s.IdleTickRescues = 0, 1
	} else {
		s.TicksSkipped = 1 + uint64(rng.Intn(1e6))
	}
	s.PerSchedule = randomSummary(rng)
	s.ExaminedDist = randomSummary(rng)
	return s
}

// randomSummary is empty, a random sample set, or twenty samples whose
// mean sits on a one-decimal rounding boundary, k.05 up to k.95 (k.25 and
// k.75 exact in binary), where %.1f and the schema's formatting must
// round alike.
func randomSummary(rng *rand.Rand) stats.Summary {
	var s stats.Summary
	switch rng.Intn(3) {
	case 1:
		for n := 1 + rng.Intn(50); n > 0; n-- {
			s.Observe(rng.Uint64() >> (8 + rng.Intn(56)))
		}
	case 2:
		k := uint64(rng.Intn(1e6)) << rng.Intn(20)
		for i := 0; i < 19; i++ {
			s.Observe(k)
		}
		s.Observe(k + 2*uint64(rng.Intn(10)) + 1)
	}
	return s
}

// TestRegistryRenderMatchesOracle: over seeded random Stats, with every
// combination of the conditional groups, the schema renders byte-equal to
// the map-and-sort oracle.
func TestRegistryRenderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		s := randomStats(rng, i)
		want, _ := oracleRender(s)
		if got := s.Registry().Render(); got != want {
			t.Fatalf("case %d (groups %03b): schema renders\n%s\noracle renders\n%s", i, i&7, got, want)
		}
	}
}

// TestRegistrySchema: the registry's names are strictly sorted, hence
// unique, and with every group on they are the oracle's name set, which
// is also as many lines as Registry sizes its snapshot for.
func TestRegistrySchema(t *testing.T) {
	for groups := 0; groups < 8; groups++ {
		s := randomStats(rand.New(rand.NewSource(int64(groups))), groups)
		r := s.Registry()
		for i := 1; i < len(r.Lines); i++ {
			if r.Lines[i-1].Name >= r.Lines[i].Name {
				t.Fatalf("groups %03b: line %d %q not after %q", groups, i, r.Lines[i].Name, r.Lines[i-1].Name)
			}
		}
		if groups != 7 {
			continue
		}
		_, want := oracleRender(s)
		var got []string
		for _, l := range r.Lines {
			got = append(got, l.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("schema names\n%v\noracle names\n%v", got, want)
		}
		if cap(r.Lines) != len(r.Lines) {
			t.Fatalf("every group on gives %d lines in a snapshot sized for %d", len(r.Lines), cap(r.Lines))
		}
	}
}

// TestRegistryIsASnapshot: a registry already built does not follow the
// stats it was taken from.
func TestRegistryIsASnapshot(t *testing.T) {
	var s kernel.Stats
	s.SchedCalls = 3
	s.PerSchedule.Observe(10)
	r := s.Registry()
	before := r.Render()
	s.SchedCalls++
	s.PerSchedule.Observe(1000)
	if after := r.Render(); after != before {
		t.Fatalf("registry moved with its stats:\n%s\nthen\n%s", before, after)
	}
	if l, ok := r.Lookup("sched_calls"); !ok || l.Value != 3 {
		t.Fatalf("Lookup(sched_calls) = %+v, %v; want the value 3", l, ok)
	}
	if _, ok := r.Lookup("no_such_line"); ok {
		t.Fatal("Lookup found a line the schema does not have")
	}
}

// renderedStats is a finished run with every conditional group on: a
// small chat load on 8 CPUs under o1, then a long sleeper, watchdog
// armed, one CPU taken offline and back after the run.
func renderedStats(tb testing.TB) *kernel.Stats {
	tb.Helper()
	m := kernel.NewMachine(kernel.Config{CPUs: 8, SMP: true, Topology: sched.UniformTopology(8, 2),
		Seed: 42, MaxCycles: 3000 * kernel.DefaultHz, Watchdog: &kernel.WatchdogConfig{},
		NewScheduler: func(env *sched.Env) sched.Scheduler { return o1.New(env) }})
	m.Run(volano.Build(m, volano.Config{Rooms: 1, UsersPerRoom: 4, MessagesPerUser: 8}).Done)
	// A sleeper long enough for idle tick chains to park and revive.
	steps := []kernel.Action{kernel.Sleep{Cycles: 20 * kernel.DefaultTickCycles}, kernel.Compute{Cycles: 1000}, kernel.Exit{}}
	m.Spawn("sleeper", nil, kernel.ProgramFunc(func(*kernel.Proc) kernel.Action {
		a := steps[0]
		steps = steps[1:]
		return a
	}))
	m.Run(func() bool { return m.Alive() == 0 })
	if err := m.OfflineCPU(3); err != nil {
		tb.Fatal(err)
	}
	if err := m.OnlineCPU(3); err != nil {
		tb.Fatal(err)
	}
	s := m.Stats()
	if s.TicksSkipped == 0 || !s.WatchdogEnabled || s.CPUOfflines == 0 {
		tb.Fatalf("a conditional group is off: ticks skipped %d, watchdog %v, offlines %d",
			s.TicksSkipped, s.WatchdogEnabled, s.CPUOfflines)
	}
	return s
}

// TestStatsRenderAllocBudget holds a harvest, Registry().Render() of a
// finished machine with every group on, to 3 objects and 2,048 bytes.
// Every benchmark cell digest and every fuzz scenario digest takes one.
// The map registry it replaced took 94 objects and 8,696 bytes (go1.24);
// today the snapshot's lines stay on the caller's stack and the rendered
// string is the only object.
func TestStatsRenderAllocBudget(t *testing.T) {
	s := renderedStats(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const calls = 64
	n := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		n += len(s.Registry().Render())
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / calls
	objects := (after.Mallocs - before.Mallocs) / calls
	if objects > 3 || bytes > 2048 {
		t.Fatalf("Registry().Render() allocates %d bytes in %d objects for %d bytes of text; budget 2,048 bytes in 3 objects",
			bytes, objects, n/calls)
	}
}

// BenchmarkStatsRender is one harvest of a finished machine's stats.
func BenchmarkStatsRender(b *testing.B) {
	s := renderedStats(b)
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(s.Registry().Render())
	}
	b.ReportMetric(float64(n)/float64(b.N), "bytes/render")
}
