package main

import (
	"math"
	"math/bits"

	"repro/internal/obs"
)

// layerSink is the benchmark's obs.Sink: the repository's CounterSink
// for counters, plus the per-span-kind aggregation the wait metrics
// need — count, virtual-duration sum, and a log2 histogram.
type layerSink struct {
	obs.CounterSink
	spans [obs.NumSpanKinds]spanAgg
}

// spanAgg aggregates the virtual durations of one span kind. Bucket i
// holds durations d with bits.Len64(d) == i, that is [2^(i-1), 2^i) µs.
type spanAgg struct {
	n, sumUS int64
	buckets  [65]int64
}

// Span implements obs.Sink.
func (s *layerSink) Span(sp obs.Span) {
	a := &s.spans[sp.Kind]
	d := sp.Dur()
	if d < 0 {
		d = 0
	}
	a.n++
	a.sumUS += d
	a.buckets[bits.Len64(uint64(d))]++
}

// quantileMS returns the upper edge, in virtual ms, of the log2 bucket
// holding the q-quantile, or 0 when no span of the kind was seen.
func (a *spanAgg) quantileMS(q float64) float64 {
	if a.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(a.n))), 1)
	var seen int64
	for i, c := range a.buckets {
		seen += c
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return float64(uint64(1)<<uint(i)) / 1000
		}
	}
	return 0
}

// sumMS returns the total virtual duration of the kind in ms.
func (a *spanAgg) sumMS() float64 { return float64(a.sumUS) / 1000 }
