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
// policy on the two matrix_quick specs. Ceilings are about 10% over what
// boot costs with o1's and cfs's real-time levels built on demand
// (measured, go1.24: o1 42.2 / 160.5 KB, cfs 10.7 / 34.6 KB on 8P /
// 32P-NUMA; with the levels built at boot they were 124.1 / 472.7 and
// 50.3 / 194.1 KB). A policy that goes back to building per-CPU storage no
// cell uses, or a boot path that starts allocating per CPU, fails here
// before it shows up as matrix_quick setup_s. reg's two rows are 3,128
// bytes over that rule: its run queue carries the static-goodness index
// (61 list heads and the level array, one allocation with the scheduler)
// that lets Schedule score only the tasks that can win; measured 8.43 →
// 11.56 KB on 8P and 26.86 → 29.99 KB on 32P-NUMA, objects 66 → 65 and
// 212 → 211.
func TestBootAllocBudget(t *testing.T) {
	budgets := []struct {
		spec, policy   string
		bytes, objects uint64
	}{
		{"8P", Reg, 9_600 + 3_128, 73},
		{"8P", ELSC, 11_900, 75},
		{"8P", Heap, 9_800, 73},
		{"8P", MQ, 10_400, 83},
		{"8P", O1, 46_500, 78},
		{"8P", CFS, 11_800, 78},
		{"32P-NUMA", Reg, 29_900 + 3_128, 233},
		{"32P-NUMA", ELSC, 32_200, 235},
		{"32P-NUMA", Heap, 30_900, 233},
		{"32P-NUMA", MQ, 33_200, 270},
		{"32P-NUMA", O1, 176_600, 239},
		{"32P-NUMA", CFS, 38_200, 239},
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
// about 10% over the measured 1.18 MB (go1.24; 1.48 MB while every queue
// carried three scratch syscalls). A per-queue or per-connection field
// that grows the chat build shows up here before it shows up as
// volano_paper live_heap_mb.
func TestVolanoBuildHeapBudget(t *testing.T) {
	const budget = 1_300_000
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
