package sched

import (
	"sync"
	"testing"
)

func TestFlatTopologyOneDomain(t *testing.T) {
	topo := FlatTopology(8)
	if topo.NumCPU() != 8 || topo.NumDomains() != 1 {
		t.Fatalf("flat topology = %s, want 8cpu/1dom", topo)
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if !topo.SameDomain(a, b) {
				t.Fatalf("flat topology separates CPUs %d and %d", a, b)
			}
		}
	}
	if len(topo.DomainCPUs(0)) != 8 {
		t.Fatalf("domain 0 holds %d CPUs, want all 8", len(topo.DomainCPUs(0)))
	}
}

// TestFlatTopologyShared: every caller gets the one layout per CPU count,
// also when machines boot in parallel (run under -race in CI).
func TestFlatTopologyShared(t *testing.T) {
	var wg sync.WaitGroup
	got := make([]*Topology, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = FlatTopology(24)
		}(i)
	}
	wg.Wait()
	for _, topo := range got {
		if topo != got[0] || topo != FlatTopology(24) {
			t.Fatal("two flat 24-CPU layouts: FlatTopology must share one per CPU count")
		}
	}
	if FlatTopology(8) == FlatTopology(16) || FlatTopology(16).NumCPU() != 16 {
		t.Fatal("FlatTopology shared a layout across CPU counts")
	}
	if FlatTopology(64).NumCPU() != 64 {
		t.Fatal("no shared layout for the kernel's largest machine")
	}
}

func TestUniformTopologyEvenSplit(t *testing.T) {
	topo := UniformTopology(32, 4)
	if topo.NumDomains() != 4 {
		t.Fatalf("domains = %d, want 4", topo.NumDomains())
	}
	for d := 0; d < 4; d++ {
		cpus := topo.DomainCPUs(d)
		if len(cpus) != 8 {
			t.Fatalf("domain %d holds %d CPUs, want 8", d, len(cpus))
		}
		for _, c := range cpus {
			if topo.DomainOf(c) != d {
				t.Fatalf("CPU %d maps to domain %d, listed under %d", c, topo.DomainOf(c), d)
			}
		}
	}
	// Contiguous blocks: 0-7, 8-15, 16-23, 24-31.
	if topo.DomainOf(7) != 0 || topo.DomainOf(8) != 1 || topo.DomainOf(31) != 3 {
		t.Fatalf("blocks not contiguous: dom(7)=%d dom(8)=%d dom(31)=%d",
			topo.DomainOf(7), topo.DomainOf(8), topo.DomainOf(31))
	}
	if topo.SameDomain(7, 8) {
		t.Fatal("CPUs 7 and 8 must sit in different domains")
	}
	if !topo.SameDomain(8, 15) {
		t.Fatal("CPUs 8 and 15 must share a domain")
	}
}

func TestUniformTopologyUnevenSplit(t *testing.T) {
	// 10 CPUs over 3 domains: 4+3+3, every CPU covered exactly once.
	topo := UniformTopology(10, 3)
	sizes := []int{}
	total := 0
	for d := 0; d < topo.NumDomains(); d++ {
		n := len(topo.DomainCPUs(d))
		sizes = append(sizes, n)
		total += n
	}
	if total != 10 {
		t.Fatalf("domains cover %d CPUs, want 10", total)
	}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("split = %v, want [4 3 3]", sizes)
	}
}

func TestUniformTopologyPanicsOnBadShape(t *testing.T) {
	for _, bad := range []struct{ ncpu, dom int }{{0, 1}, {4, 0}, {4, 5}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("UniformTopology(%d, %d) did not panic", bad.ncpu, bad.dom)
				}
			}()
			UniformTopology(bad.ncpu, bad.dom)
		}()
	}
}

func TestNewEnvDefaultsToFlatTopology(t *testing.T) {
	env := NewEnv(4, true, nil)
	if env.Topo == nil {
		t.Fatal("NewEnv left Topo nil")
	}
	if env.Topo.NumCPU() != 4 || env.Topo.NumDomains() != 1 {
		t.Fatalf("default topology = %s, want 4cpu/1dom", env.Topo)
	}
}
