package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"elsc/internal/experiments"
	"elsc/internal/kernel"
	"elsc/internal/sched"
	"elsc/internal/sched/cfs"
	"elsc/internal/sched/elsc"
	"elsc/internal/sched/heapsched"
	"elsc/internal/sched/o1"
	"elsc/internal/sched/vanilla"
	"elsc/internal/sim"
	"elsc/internal/task"
)

// The policy layer is measured from outside by a timing decorator handed
// to the kernel as its SchedulerFactory. Each decorator embeds the
// concrete *Sched, so every optional interface the kernel discovers by
// type assertion (PlaceWake, TickPreempt, PreemptsCurr, PerCPU,
// NoteRunning, DomainSteals, BonusLevels) stays promoted, and overrides
// only the timed methods. Timing never touches virtual state, so a
// decorated cell must digest identically to a bare one.

// Timed policy operations.
const (
	opSchedule = iota // Schedule
	opEnqueue         // AddToRunqueue + PlaceWake
	opDequeue         // DelFromRunqueue
	nOps
)

// policyTimer accumulates host time and call counts per operation.
type policyTimer struct {
	ns    [nOps]time.Duration
	calls [nOps]uint64

	// eng is sampled for its pending-event count at every Schedule: the
	// only point inside Instance.Run the benchmark gets control.
	eng        *sim.Engine
	pendingSum uint64
}

func (pt *policyTimer) add(o *policyTimer) {
	for i := range pt.ns {
		pt.ns[i] += o.ns[i]
		pt.calls[i] += o.calls[i]
	}
	pt.pendingSum += o.pendingSum
}

// net returns op's accumulated time less the clock's own cost inside
// each span.
func (pt *policyTimer) net(op int, clockCost time.Duration) time.Duration {
	d := pt.ns[op] - time.Duration(pt.calls[op])*clockCost
	if d < 0 {
		return 0
	}
	return d
}

func (pt *policyTimer) total(clockCost time.Duration) time.Duration {
	var d time.Duration
	for op := 0; op < nOps; op++ {
		d += pt.net(op, clockCost)
	}
	return d
}

func (pt *policyTimer) schedule(s sched.Scheduler, cpu int, prev *task.Task) sched.Result {
	pt.pendingSum += uint64(pt.eng.Pending())
	t0 := now()
	r := s.Schedule(cpu, prev)
	pt.ns[opSchedule] += now() - t0
	pt.calls[opSchedule]++
	return r
}

func (pt *policyTimer) enqueue(s sched.Scheduler, t *task.Task) {
	t0 := now()
	s.AddToRunqueue(t)
	pt.ns[opEnqueue] += now() - t0
	pt.calls[opEnqueue]++
}

func (pt *policyTimer) dequeue(s sched.Scheduler, t *task.Task) {
	t0 := now()
	s.DelFromRunqueue(t)
	pt.ns[opDequeue] += now() - t0
	pt.calls[opDequeue]++
}

// wakePlacer is the kernel's SD_WAKE_IDLE side interface (o1, cfs).
type wakePlacer interface {
	PlaceWake(t *task.Task, cpu int) bool
}

func (pt *policyTimer) placeWake(s wakePlacer, t *task.Task, cpu int) bool {
	t0 := now()
	ok := s.PlaceWake(t, cpu)
	pt.ns[opEnqueue] += now() - t0
	pt.calls[opEnqueue]++
	return ok
}

type timedReg struct {
	*vanilla.Sched
	pt *policyTimer
}

func (d timedReg) Schedule(cpu int, prev *task.Task) sched.Result {
	return d.pt.schedule(d.Sched, cpu, prev)
}
func (d timedReg) AddToRunqueue(t *task.Task)   { d.pt.enqueue(d.Sched, t) }
func (d timedReg) DelFromRunqueue(t *task.Task) { d.pt.dequeue(d.Sched, t) }

type timedELSC struct {
	*elsc.Sched
	pt *policyTimer
}

func (d timedELSC) Schedule(cpu int, prev *task.Task) sched.Result {
	return d.pt.schedule(d.Sched, cpu, prev)
}
func (d timedELSC) AddToRunqueue(t *task.Task)   { d.pt.enqueue(d.Sched, t) }
func (d timedELSC) DelFromRunqueue(t *task.Task) { d.pt.dequeue(d.Sched, t) }

type timedHeap struct {
	*heapsched.Sched
	pt *policyTimer
}

func (d timedHeap) Schedule(cpu int, prev *task.Task) sched.Result {
	return d.pt.schedule(d.Sched, cpu, prev)
}
func (d timedHeap) AddToRunqueue(t *task.Task)   { d.pt.enqueue(d.Sched, t) }
func (d timedHeap) DelFromRunqueue(t *task.Task) { d.pt.dequeue(d.Sched, t) }

type timedO1 struct {
	*o1.Sched
	pt *policyTimer
}

func (d timedO1) Schedule(cpu int, prev *task.Task) sched.Result {
	return d.pt.schedule(d.Sched, cpu, prev)
}
func (d timedO1) AddToRunqueue(t *task.Task)   { d.pt.enqueue(d.Sched, t) }
func (d timedO1) DelFromRunqueue(t *task.Task) { d.pt.dequeue(d.Sched, t) }
func (d timedO1) PlaceWake(t *task.Task, cpu int) bool {
	return d.pt.placeWake(d.Sched, t, cpu)
}

type timedCFS struct {
	*cfs.Sched
	pt *policyTimer
}

func (d timedCFS) Schedule(cpu int, prev *task.Task) sched.Result {
	return d.pt.schedule(d.Sched, cpu, prev)
}
func (d timedCFS) AddToRunqueue(t *task.Task)   { d.pt.enqueue(d.Sched, t) }
func (d timedCFS) DelFromRunqueue(t *task.Task) { d.pt.dequeue(d.Sched, t) }
func (d timedCFS) PlaceWake(t *task.Task, cpu int) bool {
	return d.pt.placeWake(d.Sched, t, cpu)
}

// timedPolicies are the policies that have a decorator: every policy the
// benchmark's workloads run (experiments.DefaultPolicies).
var timedPolicies = []string{"reg", "elsc", "heap", "o1", "cfs"}

// timedFactory returns policy's factory with the timing decorator on.
func timedFactory(policy string, pt *policyTimer) kernel.SchedulerFactory {
	return func(env *sched.Env) sched.Scheduler {
		switch policy {
		case "reg":
			return timedReg{vanilla.New(env), pt}
		case "elsc":
			return timedELSC{elsc.New(env), pt}
		case "heap":
			return timedHeap{heapsched.New(env), pt}
		case "o1":
			return timedO1{o1.New(env), pt}
		case "cfs":
			return timedCFS{cfs.New(env), pt}
		}
		panic("benchmark: no timing decorator for policy " + policy)
	}
}

// checkDecorators reports, per policy, every exported method of the
// concrete scheduler that the timing decorator's method set lacks or
// holds with another signature — a side interface the kernel finds by
// type assertion on the bare policy and would miss on the decorated one.
func checkDecorators() error {
	var errs []error
	for _, policy := range timedPolicies {
		env := sched.NewEnv(4, true, nil)
		bare := reflect.TypeOf(experiments.Factory(policy)(env))
		timed := reflect.TypeOf(timedFactory(policy, &policyTimer{})(env))
		for i := 0; i < bare.NumMethod(); i++ {
			want := bare.Method(i)
			got, ok := timed.MethodByName(want.Name)
			if !ok {
				errs = append(errs, fmt.Errorf("%s: decorator lost method %s", policy, want.Name))
				continue
			}
			// Compare signatures without the receiver.
			w, g := want.Type, got.Type
			same := w.NumIn() == g.NumIn() && w.NumOut() == g.NumOut()
			for k := 1; same && k < w.NumIn(); k++ {
				same = w.In(k) == g.In(k)
			}
			for k := 0; same && k < w.NumOut(); k++ {
				same = w.Out(k) == g.Out(k)
			}
			if !same {
				errs = append(errs, fmt.Errorf("%s.%s: signature %v became %v", policy, want.Name, w, g))
			}
		}
	}
	return errors.Join(errs...)
}

// clockCost measures how much of one now()..now() bracket the clock
// itself accounts for: the mean span of an empty operation.
func clockCost() time.Duration {
	const n = 1 << 20
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := now()
		sum += now() - t0
	}
	return sum / n
}
