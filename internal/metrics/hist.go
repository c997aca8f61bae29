package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or 0 when it is undefined (fewer than two points or zero
// variance). The paper describes several of its relationships as
// "fuzzy"; this quantifies the fuzz.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("metrics: Pearson over mismatched lengths %d, %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Correlation returns the Pearson coefficient of a series' x and y
// coordinates.
func (s *Series) Correlation() float64 {
	xs := make([]float64, len(s.Points))
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		xs[i], ys[i] = p.X, p.Y
	}
	return Pearson(xs, ys)
}

// Histogram counts observations in fixed-width buckets over
// [Min, Min+width×n), with explicit underflow/overflow counters. The
// zero value is not usable; use NewHistogram.
type Histogram struct {
	min, width  float64
	buckets     []int64
	under, over int64
	count       int64
}

// NewHistogram creates a histogram of n buckets of the given width
// starting at min.
func NewHistogram(min, width float64, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic(fmt.Sprintf("metrics: bad histogram geometry width=%v n=%d", width, n))
	}
	return &Histogram{min: min, width: width, buckets: make([]int64, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.count++
	if x < h.min {
		h.under++
		return
	}
	// Compare before converting: past 2^63 buckets (or NaN) the int
	// conversion would wrap to a negative index.
	f := (x - h.min) / h.width
	if !(f < float64(len(h.buckets))) {
		h.over++
		return
	}
	h.buckets[int(f)]++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.count }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Underflow and Overflow return the out-of-range counts.
func (h *Histogram) Underflow() int64 { return h.under }

// Overflow returns the count of observations above the last bucket.
func (h *Histogram) Overflow() int64 { return h.over }

// Render draws the histogram as horizontal ASCII bars, skipping leading
// and trailing empty buckets.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	lo, hi := 0, len(h.buckets)-1
	for lo < len(h.buckets) && h.buckets[lo] == 0 {
		lo++
	}
	for hi >= 0 && h.buckets[hi] == 0 {
		hi--
	}
	var b strings.Builder
	if h.count == 0 || lo > hi {
		b.WriteString("(no data)\n")
		return b.String()
	}
	var max int64
	for i := lo; i <= hi; i++ {
		if h.buckets[i] > max {
			max = h.buckets[i]
		}
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "%10s  %d\n", fmt.Sprintf("< %.3g", h.min), h.under)
	}
	for i := lo; i <= hi; i++ {
		edge := h.min + float64(i)*h.width
		bar := int(float64(h.buckets[i]) / float64(max) * float64(width))
		fmt.Fprintf(&b, "%10.3g  %s %d\n", edge, strings.Repeat("#", bar), h.buckets[i])
	}
	if h.over > 0 {
		top := h.min + float64(len(h.buckets))*h.width
		fmt.Fprintf(&b, "%10s  %d\n", fmt.Sprintf(">= %.3g", top), h.over)
	}
	return b.String()
}

// histogramJSON is a Histogram's encoding, its fields in the sorted key
// order of the map encoding it replaced (same bytes, fewer objects).
type histogramJSON struct {
	Buckets []int64 `json:"buckets"`
	Min     float64 `json:"min"`
	N       int64   `json:"n"`
	Over    int64   `json:"over"`
	Under   int64   `json:"under"`
	Width   float64 `json:"width"`
}

// MarshalJSON encodes the histogram geometry and counts.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Buckets: h.buckets, Min: h.min, N: h.count,
		Over: h.over, Under: h.under, Width: h.width,
	})
}
