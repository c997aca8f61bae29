// Package metrics implements the statistics used to evaluate the
// testbed: running summaries (Welford), full-sample distributions with
// quantiles and CDFs, XY series for the paper's scatter plots, and ASCII
// renderings of figures for terminal output.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Summary accumulates count, mean, variance (Welford's online
// algorithm), min and max without retaining samples, in 40 bytes. The
// zero value is an empty summary ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddN records the same observation n times (useful for weighted
// aggregation of pre-averaged values).
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Merge folds other into s.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the unbiased sample variance, or 0 with fewer than
// two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String summarizes the summary for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g min=%.3g max=%.3g sd=%.3g",
		s.n, s.Mean(), s.Min(), s.Max(), s.Stddev())
}

// Sample retains every observation, supporting medians, arbitrary
// quantiles and empirical CDFs. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation, or 0 if empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Quantile returns the q-th sample quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns 0 if empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	s.sort()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	if lo == len(s.xs)-1 {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// FractionBelow reports the fraction of observations strictly less than x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(i) / float64(len(s.xs))
}

// FractionAtMost reports the fraction of observations <= x.
func (s *Sample) FractionAtMost(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > x })
	return float64(i) / float64(len(s.xs))
}

// CDF returns the empirical CDF as (value, cumulative fraction) points,
// one per observation, suitable for plotting.
func (s *Sample) CDF() []Point {
	s.sort()
	pts := make([]Point, len(s.xs))
	n := float64(len(s.xs))
	for i, x := range s.xs {
		pts[i] = Point{X: x, Y: float64(i+1) / n}
	}
	return pts
}

// PercentReduction returns the percentage by which with improves on
// without: 100*(without-with)/without. Negative values mean with is
// worse. Returns 0 when without is 0.
func PercentReduction(without, with float64) float64 {
	if without == 0 {
		return 0
	}
	return 100 * (without - with) / without
}

// MarshalJSON encodes the summary's derived statistics. The keys are
// in the sorted order a map encoding has, and the numbers follow
// encoding/json's rules, so the bytes are what json.Marshal would give.
// They are appended into a buffer on the stack and copied out once, so
// a summary costs one allocation of its encoded size. A NaN or infinite
// statistic is an error, as it is for encoding/json.
func (s *Summary) MarshalJSON() ([]byte, error) {
	hi, mean, lo, sd := s.Max(), s.Mean(), s.Min(), s.Stddev()
	for _, x := range [...]float64{hi, mean, lo, sd} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metrics: summary statistic %v has no JSON encoding", x)
		}
	}
	var buf [160]byte // the longest encoding is 158 bytes
	b := append(buf[:0], `{"max":`...)
	b = appendJSONFloat(b, hi)
	b = append(b, `,"mean":`...)
	b = appendJSONFloat(b, mean)
	b = append(b, `,"min":`...)
	b = appendJSONFloat(b, lo)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, s.N(), 10)
	b = append(b, `,"stddev":`...)
	b = appendJSONFloat(b, sd)
	b = append(b, '}')
	return append(make([]byte, 0, len(b)), b...), nil
}

// appendJSONFloat appends a finite x as encoding/json writes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 on, with a single-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendJSONFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
