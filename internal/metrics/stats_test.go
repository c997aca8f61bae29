package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Population variance is 4; sample variance is 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Variance() != 0 || s.Stddev() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Variance() != 0 {
		t.Fatalf("single-sample variance = %v", s.Variance())
	}
	if s.Mean() != 3.5 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	check := func(xs, ys []float64) bool {
		var a, b, all Summary
		for _, x := range append(append([]float64{}, xs...), ys...) {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true
			}
		}
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(b)
		scale := math.Max(1, math.Abs(all.Variance()))
		meanScale := math.Max(1, math.Abs(all.Mean()))
		return a.N() == all.N() &&
			almost(a.Mean(), all.Mean(), 1e-9*meanScale) &&
			almost(a.Variance(), all.Variance(), 1e-6*scale) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Merge(b) // empty into empty
	if a.N() != 0 {
		t.Fatal("merge of empties should be empty")
	}
	b.Add(5)
	a.Merge(b) // into empty
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty lost data")
	}
	var c Summary
	a.Merge(c) // empty into non-empty
	if a.N() != 1 {
		t.Fatal("merging empty changed summary")
	}
}

func TestSummaryAddN(t *testing.T) {
	var s Summary
	s.AddN(4, 3)
	if s.N() != 3 || s.Mean() != 4 {
		t.Fatalf("AddN: n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for _, x := range []float64{10, 20, 30, 40, 50} {
		s.Add(x)
	}
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.Median() != 30 {
		t.Fatalf("Median = %v", s.Median())
	}
}

func TestSampleQuantilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(2) did not panic")
		}
	}()
	s.Quantile(2)
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.FractionBelow(10) != 0 {
		t.Fatal("empty FractionBelow should be 0")
	}
	if len(s.CDF()) != 0 {
		t.Fatal("empty CDF should have no points")
	}
}

func TestSampleFractions(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3, 4} {
		s.Add(x)
	}
	if got := s.FractionBelow(2); !almost(got, 0.2, 1e-12) {
		t.Fatalf("FractionBelow(2) = %v", got)
	}
	if got := s.FractionAtMost(2); !almost(got, 0.6, 1e-12) {
		t.Fatalf("FractionAtMost(2) = %v", got)
	}
	if got := s.FractionAtMost(100); got != 1 {
		t.Fatalf("FractionAtMost(100) = %v", got)
	}
}

func TestSampleCDFMonotone(t *testing.T) {
	check := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		cdf := s.CDF()
		if len(cdf) != len(raw) {
			return false
		}
		for i := 1; i < len(cdf); i++ {
			if cdf[i].X < cdf[i-1].X || cdf[i].Y < cdf[i-1].Y {
				return false
			}
		}
		if len(cdf) > 0 && !almost(cdf[len(cdf)-1].Y, 1, 1e-12) {
			return false
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleAddAfterSort(t *testing.T) {
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Median() // forces sort
	s.Add(0)
	if s.Min() != 0 {
		t.Fatalf("Min after post-sort Add = %v", s.Min())
	}
}

func TestPercentReduction(t *testing.T) {
	if got := PercentReduction(100, 60); got != 40 {
		t.Fatalf("PercentReduction(100,60) = %v", got)
	}
	if got := PercentReduction(100, 115); got != -15 {
		t.Fatalf("PercentReduction(100,115) = %v", got)
	}
	if got := PercentReduction(0, 5); got != 0 {
		t.Fatalf("PercentReduction(0,5) = %v", got)
	}
}

func TestQuantileSingleSample(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) of single sample = %v", q, got)
		}
	}
}

func TestSummaryWelfordAgainstNaive(t *testing.T) {
	check := func(raw []float64) bool {
		xs := raw
		if len(xs) < 2 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true
			}
		}
		var s Summary
		sum := 0.0
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(naive))
		return almost(s.Variance(), naive, 1e-6*scale)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSizes pins the summary record: a disk keeps two and a
// run's per-processor stats two per node.
func TestRecordSizes(t *testing.T) {
	got, limit := unsafe.Sizeof(Summary{}), uintptr(40)
	t.Logf("Summary: %d bytes", got)
	if got > limit {
		t.Errorf("Summary is %d bytes, want at most %d", got, limit)
	}
}
