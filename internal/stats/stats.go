// Package stats provides the summaries used to reproduce the paper's
// tables and figures, plus a /proc-style text rendering.
//
// The paper instruments both schedulers and exposes the numbers through the
// proc file system ("we also collected statistics about what the scheduler
// was doing and exposed them through the proc file system", §6). This
// package is the analogue: O(1) summaries updated on the hot path, and a
// Registry, a name-sorted snapshot of lines that renders as text.
package stats

import (
	"math/bits"
	"strconv"
)

// Summary accumulates integer samples with O(1) updates: count, sum, min
// and max, which is all a mean-and-extremes report reads. The kernel
// observes two per schedule().
type Summary struct {
	count uint64
	sum   uint64
	min   uint64
	max   uint64
}

// Observe records one sample.
func (s *Summary) Observe(v uint64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
}

// Count returns the number of samples.
func (s *Summary) Count() uint64 { return s.count }

// Min returns the smallest sample, or 0 if empty.
func (s *Summary) Min() uint64 { return s.min }

// Max returns the largest sample, or 0 if empty.
func (s *Summary) Max() uint64 { return s.max }

// Mean returns the average sample, or 0 if empty.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Dist is a Summary plus power-of-two buckets for percentile estimates.
type Dist struct {
	Summary
	buckets [64]uint64 // bucket i counts samples of bit length i (bits.Len64)
}

// Observe records one sample.
func (d *Dist) Observe(v uint64) {
	d.Summary.Observe(v)
	d.buckets[bits.Len64(v)]++
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

// Line is one registry line: a counter's Value, or, when IsSummary is
// set, a Summary of samples.
type Line struct {
	Name      string
	Value     uint64
	Summary   Summary
	IsSummary bool
}

// Registry is a /proc-style snapshot: lines in the order their producer
// appended them, which is sorted by name. It holds copies, so a registry
// already built does not change with the stats it was taken from.
type Registry struct {
	Lines []Line
}

// CounterLine returns a counter line.
func CounterLine(name string, v uint64) Line { return Line{Name: name, Value: v} }

// SummaryLine returns a summary line.
func SummaryLine(name string, s Summary) Line { return Line{Name: name, Summary: s, IsSummary: true} }

// Lookup returns the line named name.
func (r *Registry) Lookup(name string) (Line, bool) {
	for _, l := range r.Lines {
		if l.Name == name {
			return l, true
		}
	}
	return Line{}, false
}

// Render formats the lines in order, in the style of a /proc/<foo>/stats
// file: "name value" for a counter, "name count=N mean=M.m min=A max=B"
// for a summary. Lines are formatted in a stack buffer (a longer text
// grows it onto the heap) and copied once into the result.
func (r *Registry) Render() string {
	b := make([]byte, 0, 2048)
	for i := range r.Lines {
		l := &r.Lines[i]
		b = append(b, l.Name...)
		if s := &l.Summary; l.IsSummary {
			b = strconv.AppendUint(append(b, " count="...), s.count, 10)
			b = strconv.AppendFloat(append(b, " mean="...), s.Mean(), 'f', 1, 64)
			b = strconv.AppendUint(append(b, " min="...), s.min, 10)
			b = strconv.AppendUint(append(b, " max="...), s.max, 10)
		} else {
			b = strconv.AppendUint(append(b, ' '), l.Value, 10)
		}
		b = append(b, '\n')
	}
	return string(b)
}
