package experiments

import (
	"runtime"
	"testing"

	"elsc/internal/sim"
	"elsc/internal/workload"
)

// TestRegistrySpawnsNoRealTimeTask pins the traffic assumption behind
// sched.LevelArray's on-demand real-time levels: over every registry cell
// (AllSpecs x Policies x workload.Names()) no task is ever real-time, so
// no o1 or cfs queue builds its hundred real-time lists and boot does not
// pay for them. Only SpawnRT and SetPolicy make a real-time task, and
// SetPolicy has no caller in any workload, so the class of every task at
// the end of the run is the class it was filed under.
func TestRegistrySpawnsNoRealTimeTask(t *testing.T) {
	sc := QuickScale()
	for _, spec := range AllSpecs {
		for _, policy := range Policies {
			for _, load := range workload.Names() {
				m := NewMachineOn(nil, spec, policy, sc)
				workload.Build(load, m, WorkloadParams(spec, sc)).Run()
				rt := 0
				for _, p := range m.Procs() {
					if p.Task.RealTime() {
						rt++
					}
				}
				if rt != 0 {
					t.Errorf("%s: %d real-time tasks. Registry cells now build LevelArray's real-time levels at run time: "+
						"re-measure boot (TestBootAllocBudget, BenchmarkMicro_Boot, setup_s and alloc_mb on matrix_quick) "+
						"and the sched package doc's trap (c) before accepting this", Load(load).On(spec, policy).Key(), rt)
				}
			}
		}
	}
}

// bootCost returns the heap bytes and objects one machine boot allocates,
// on a recycled engine as every matrix cell boots.
func bootCost(spec MachineSpec, policy string) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const boots = 16
	sc := QuickScale()
	eng := new(sim.Engine)
	NewMachineOn(eng, spec, policy, sc) // the engine's one-time wheel storage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		NewMachineOn(eng, spec, policy, sc)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / boots, (after.Mallocs - before.Mallocs) / boots
}

// TestBootAllocBudget holds one kernel.NewMachine to a heap budget per
// policy on the two matrix_quick specs. Ceilings are about 10% over the
// measured boots (go1.24): reg takes 7,720 B in 57 objects on 8P and
// 24,040 B in 201 on 32P-NUMA, since a Machine without per-schedule
// histograms (768 bytes, was 1,792) and one shared flat topology per CPU
// count took 1.4 / 2.0 KB and 8 / 10 objects off every policy. Before
// that, index-linked run lists — an 8-byte klist.Node, a 12-byte
// zero-value klist.Head and a 192-byte Task, where they were 40, 48 and
// 256 bytes — had cut boot (KB on 8P / 32P-NUMA, before → after: o1
// 41.8 → 18.3 / 159.9 → 68.0, reg 11.8 → 9.2 / 30.2 → 26.1, elsc
// 10.5 → 9.2 / 28.9 → 26.0, mq 9.1 → 8.5 / 29.6 → 26.5 in 75 → 67 / 245 →
// 213 objects, its heads now held by value, heap 8.6 → 8.4 / 27.7 → 26.0,
// cfs 10.4 → 10.2 / 34.1 → 33.1). Earlier, building o1's and cfs's
// real-time levels on demand had taken them from 124.1 / 472.7 and 50.3 /
// 194.1 KB. A policy that goes back to building per-CPU storage no cell
// uses, or a boot path that starts allocating per CPU, fails here before
// it shows up as matrix_quick setup_s.
func TestBootAllocBudget(t *testing.T) {
	budgets := []struct {
		spec, policy   string
		bytes, objects uint64
	}{
		{"8P", Reg, 8_500, 63},
		{"8P", ELSC, 8_500, 66},
		{"8P", Heap, 7_700, 64},
		{"8P", MQ, 7_800, 65},
		{"8P", O1, 18_600, 69},
		{"8P", CFS, 9_600, 69},
		{"32P-NUMA", Reg, 26_500, 221},
		{"32P-NUMA", ELSC, 26_500, 224},
		{"32P-NUMA", Heap, 26_400, 222},
		{"32P-NUMA", MQ, 26_900, 223},
		{"32P-NUMA", O1, 72_700, 228},
		{"32P-NUMA", CFS, 34_300, 228},
	}
	if len(budgets) != 2*len(Policies) {
		t.Fatalf("%d budgets for %d policies on two specs", len(budgets), len(Policies))
	}
	for _, b := range budgets {
		bytes, objects := bootCost(SpecByLabel(b.spec), b.policy)
		if bytes > b.bytes || objects > b.objects {
			t.Errorf("%s/%s: boot allocates %d bytes in %d objects, budget %d bytes in %d objects",
				b.spec, b.policy, bytes, objects, b.bytes, b.objects)
		}
	}
}

// TestVolanoBuildHeapBudget holds one built volano-reg-4P cell at
// DefaultScale — 10 rooms x 20 users, ~800 ipc queues — to a heap budget:
// the bytes still live after boot+build and a forced collection, on a
// fresh engine, as benchmark/run.sh reports live_heap_mb. The ceiling is
// about 10% over the measured 0.90 MB (go1.24; 1.03 MB while each
// receiver, reader and writer program held its own copy of the workload
// Config; 1.15 MB with pointer-linked run lists, a 256-byte Task and wait
// queues allocated beside each ipc queue; 1.48 MB while every queue
// carried three scratch syscalls). A
// per-queue or per-connection field that grows the chat build shows up
// here before it shows up as volano_paper live_heap_mb.
func TestVolanoBuildHeapBudget(t *testing.T) {
	const budget = 990_000
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	spec, sc := SpecByLabel("4P"), DefaultScale()
	before := live()
	m := NewMachineOn(nil, spec, Reg, sc)
	inst := workload.Build(workload.Volano, m, WorkloadParams(spec, sc))
	after := live()
	runtime.KeepAlive(m)
	runtime.KeepAlive(inst)
	if after > before && after-before > budget {
		t.Fatalf("a built volano-reg-4P cell holds %d bytes, budget %d", after-before, budget)
	}
	t.Logf("a built volano-reg-4P cell holds %d bytes", after-before)
}
