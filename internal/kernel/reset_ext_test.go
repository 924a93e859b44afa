package kernel_test

import (
	"runtime"
	"testing"

	"elsc/internal/experiments"
	"elsc/internal/sim"
	"elsc/internal/workload"
)

// TestResetEngineForgetsItsSimulation: what a recycled engine keeps
// alive after Reset is its own rings and freelist, whatever ran on it
// before. A reset engine that still reaches the previous machine (it
// did, through the stale slot links of freelisted events) makes every
// recycled cell carry its predecessor's heap.
func TestResetEngineForgetsItsSimulation(t *testing.T) {
	sc := experiments.QuickScale()
	retained := func(label, policy, load string) int64 {
		eng := new(sim.Engine)
		spec := experiments.SpecByLabel(label)
		for i := 0; i < 2; i++ { // the second cell runs on a warm freelist
			m := experiments.NewMachineOn(eng, spec, policy, sc)
			workload.Build(load, m, experiments.WorkloadParams(spec, sc)).Run()
		}
		eng.Reset()
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the first cycle's finalizers and sweep can leave garbage counted
		runtime.ReadMemStats(&ms)
		held := int64(ms.HeapAlloc)
		runtime.KeepAlive(eng)
		return held
	}
	small := retained("4P", experiments.Reg, workload.Latency)
	large := retained("32P-NUMA", experiments.O1, workload.Volano)
	// The freelists differ by a few dozen 80-byte events; a pinned
	// 32P-NUMA VolanoMark machine is half a megabyte.
	if diff := large - small; diff > 32<<10 || diff < -32<<10 {
		t.Fatalf("reset engine retains %d KB after a VolanoMark cell, %d KB after a latency cell",
			large>>10, small>>10)
	}
}
