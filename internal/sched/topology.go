package sched

import (
	"fmt"
	"sync/atomic"
)

// Topology describes the machine's cache-domain layout: CPUs grouped into
// domains that share a last-level cache (a socket, a NUMA node, or a
// chiplet — the model does not distinguish). A task dispatched inside its
// last domain refills from the shared cache at CacheRefillMax; a dispatch
// in a foreign domain must pull its working set across the interconnect
// and pays CrossDomainRefillMax instead. Domain-aware policies read the
// layout through Env.Topo to keep migrations inside a domain when they
// can, exactly as the 2.6 kernel's sched_domains hierarchy does.
//
// A Topology is immutable after construction and safe to share between
// machines.
type Topology struct {
	domainOf []int    // cpu -> domain index
	domains  [][]int  // domain index -> member CPUs, ascending
	masks    []uint64 // domain index -> member CPUs as a bitmask
}

// FlatTopology returns the degenerate layout: every CPU in one shared
// domain. It reproduces the pre-topology behavior — no dispatch is ever
// cross-domain — and is the default for machines that do not declare a
// layout. Every NewEnv asks for one, so each CPU count's layout is built
// once and shared by every caller, machines booting in parallel
// included. ncpu is at most 64, the kernel's cap.
func FlatTopology(ncpu int) *Topology {
	p := &flat[ncpu]
	if t := p.Load(); t != nil {
		return t
	}
	p.CompareAndSwap(nil, UniformTopology(ncpu, 1))
	return p.Load()
}

// flat holds FlatTopology's shared layouts, indexed by CPU count.
var flat [65]atomic.Pointer[Topology]

// UniformTopology splits ncpu processors into ndomains contiguous blocks,
// as even as possible (the first ncpu%ndomains domains hold one extra
// CPU). A 32-CPU, 4-domain machine is therefore CPUs 0-7, 8-15, 16-23,
// 24-31 — the "4 sockets × 8 cores" shape of the scaled-up specs.
func UniformTopology(ncpu, ndomains int) *Topology {
	if ncpu < 1 {
		panic("sched: topology needs at least one CPU")
	}
	if ndomains < 1 || ndomains > ncpu {
		panic(fmt.Sprintf("sched: %d domains is invalid for %d CPUs", ndomains, ncpu))
	}
	t := &Topology{
		domainOf: make([]int, ncpu),
		domains:  make([][]int, ndomains),
		masks:    make([]uint64, ndomains),
	}
	base := ncpu / ndomains
	extra := ncpu % ndomains
	cpu := 0
	for d := 0; d < ndomains; d++ {
		size := base
		if d < extra {
			size++
		}
		for i := 0; i < size; i++ {
			t.domainOf[cpu] = d
			t.domains[d] = append(t.domains[d], cpu)
			t.masks[d] |= 1 << uint(cpu)
			cpu++
		}
	}
	return t
}

// NumCPU returns the processor count the topology covers.
func (t *Topology) NumCPU() int { return len(t.domainOf) }

// NumDomains returns the number of cache domains.
func (t *Topology) NumDomains() int { return len(t.domains) }

// DomainOf returns the domain holding cpu.
func (t *Topology) DomainOf(cpu int) int { return t.domainOf[cpu] }

// DomainCPUs returns the CPUs in domain d. The slice is shared; callers
// must not modify it.
func (t *Topology) DomainCPUs(d int) []int { return t.domains[d] }

// DomainMask returns the CPUs in domain d as a bitmask (bit i == CPU i),
// for callers that intersect it with other CPU sets. CPUs past 63 do not
// fit; the kernel caps machines at 64.
func (t *Topology) DomainMask(d int) uint64 { return t.masks[d] }

// SameDomain reports whether CPUs a and b share a cache domain.
func (t *Topology) SameDomain(a, b int) bool { return t.domainOf[a] == t.domainOf[b] }

// String renders "32cpu/4dom" style labels for tables and traces.
func (t *Topology) String() string {
	return fmt.Sprintf("%dcpu/%ddom", t.NumCPU(), t.NumDomains())
}
