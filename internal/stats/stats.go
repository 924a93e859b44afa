// Package stats provides the counters and summaries used to reproduce the
// paper's tables and figures, plus a /proc-style text rendering.
//
// The paper instruments both schedulers and exposes the numbers through the
// proc file system ("we also collected statistics about what the scheduler
// was doing and exposed them through the proc file system", §6). This
// package is the analogue: cheap counters updated on the hot path and a
// Registry that renders them as text.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Dist accumulates a distribution of integer samples with O(1) updates:
// count, sum, min, max, and power-of-two buckets for percentile estimates.
type Dist struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [64]uint64 // bucket i counts samples with bit length i
}

// Observe records one sample.
func (d *Dist) Observe(v uint64) {
	if d.count == 0 || v < d.min {
		d.min = v
	}
	if v > d.max {
		d.max = v
	}
	d.count++
	d.sum += v
	d.buckets[bitLen(v)]++
}

// Count returns the number of samples.
func (d *Dist) Count() uint64 { return d.count }

// Min returns the smallest sample, or 0 if empty.
func (d *Dist) Min() uint64 { return d.min }

// Max returns the largest sample, or 0 if empty.
func (d *Dist) Max() uint64 { return d.max }

// Mean returns the average sample, or 0 if empty.
func (d *Dist) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.count)
}

// ApproxPercentile estimates the q-quantile (0 < q <= 1) from the
// power-of-two buckets, interpolating linearly inside the bucket that
// crosses the rank. Accuracy is bucket-limited (within a factor of two),
// which is enough for latency-tail reporting.
func (d *Dist) ApproxPercentile(q float64) uint64 {
	if d.count == 0 {
		return 0
	}
	if q <= 0 {
		return d.min
	}
	if q >= 1 {
		return d.max
	}
	rank := q * float64(d.count)
	var seen float64
	for i, c := range d.buckets {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank <= next {
			lo := uint64(0)
			if i > 0 {
				lo = 1 << (i - 1)
			}
			hi := lo * 2
			if lo == 0 {
				hi = 1
			}
			frac := (rank - seen) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			if uint64(v) > d.max {
				return d.max
			}
			return uint64(v)
		}
		seen = next
	}
	return d.max
}

// bitLen is the bucket index: one power-of-two bucket per bit length.
// bits.Len64 compiles to a single count-leading-zeros instruction, and
// Dist.Add sits on the per-schedule hot path.
func bitLen(v uint64) int { return bits.Len64(v) }

// Registry is a named collection of metrics rendered /proc-style:
// one "name value" line per metric, sorted by name.
type Registry struct {
	counters map[string]*Counter
	dists    map[string]*Dist
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		dists:    make(map[string]*Dist),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Dist returns the distribution registered under name, creating it if
// needed.
func (r *Registry) Dist(name string) *Dist {
	if d, ok := r.dists[name]; ok {
		return d
	}
	d := &Dist{}
	r.dists[name] = d
	r.order = append(r.order, name)
	return d
}

// Render formats every metric as "name value" lines, sorted by name,
// in the style of a /proc/<foo>/stats file.
func (r *Registry) Render() string {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		if c, ok := r.counters[name]; ok {
			fmt.Fprintf(&b, "%s %d\n", name, c.Value())
		}
		if d, ok := r.dists[name]; ok {
			fmt.Fprintf(&b, "%s count=%d mean=%.1f min=%d max=%d\n",
				name, d.Count(), d.Mean(), d.Min(), d.Max())
		}
	}
	return b.String()
}
