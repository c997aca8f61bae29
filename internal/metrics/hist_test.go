package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson(nil, nil) != 0 {
		t.Fatal("empty Pearson should be 0")
	}
	if Pearson([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single-point Pearson should be 0")
	}
	if Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance Pearson should be 0")
	}
}

func TestPearsonPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

func TestPearsonBounded(t *testing.T) {
	check := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		half := len(raw) / 2
		xs, ys := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesCorrelation(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if r := s.Correlation(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("series correlation = %v", r)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 5) // [0,50) in 5 buckets
	for _, x := range []float64{-1, 0, 5, 10, 49.9, 50, 100} {
		h.Add(x)
	}
	if h.N() != 7 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Underflow() != 1 || h.Overflow() != 2 {
		t.Fatalf("under=%d over=%d", h.Underflow(), h.Overflow())
	}
	if h.Bucket(0) != 2 || h.Bucket(1) != 1 || h.Bucket(4) != 1 {
		t.Fatalf("buckets: %d %d %d", h.Bucket(0), h.Bucket(1), h.Bucket(4))
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for i := 0; i < 8; i++ {
		h.Add(3.5)
	}
	h.Add(5.5)
	h.Add(-2)
	h.Add(99)
	out := h.Render(20)
	if !strings.Contains(out, "####################") {
		t.Fatalf("render missing full bar:\n%s", out)
	}
	if !strings.Contains(out, "< 0") || !strings.Contains(out, ">= 10") {
		t.Fatalf("render missing overflow rows:\n%s", out)
	}
	// Leading empty buckets skipped: first bucket line should be 3.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "3") {
		t.Fatalf("leading buckets not trimmed:\n%s", out)
	}
}

func TestHistogramRenderEmpty(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	if !strings.Contains(h.Render(10), "(no data)") {
		t.Fatal("empty render")
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHistogram(0, 0, 4) },
		func() { NewHistogram(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSummaryJSON(t *testing.T) {
	var s Summary
	s.Add(2)
	s.Add(4)
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["n"] != 2 || m["mean"] != 3 || m["min"] != 2 || m["max"] != 4 {
		t.Fatalf("JSON = %s", b)
	}
}

func TestHistogramJSON(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(1.5)
	h.Add(10)
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Buckets []int64 `json:"buckets"`
		Over    int64   `json:"over"`
		N       int64   `json:"n"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.N != 2 || m.Over != 1 || m.Buckets[1] != 1 {
		t.Fatalf("JSON = %s", b)
	}
}

// The struct encodings must give the bytes of the map encodings they
// replaced, which sort their keys: the result digests and goldens hash
// these bytes.
func TestJSONMatchesMapEncoding(t *testing.T) {
	mapSummary := func(s *Summary) ([]byte, error) {
		return json.Marshal(map[string]any{
			"n": s.N(), "mean": s.Mean(), "min": s.Min(), "max": s.Max(), "stddev": s.Stddev(),
		})
	}
	mapHistogram := func(h *Histogram) ([]byte, error) {
		return json.Marshal(map[string]any{
			"min": h.min, "width": h.width, "buckets": h.buckets,
			"under": h.under, "over": h.over, "n": h.count,
		})
	}
	check := func(name string, got []byte, gotErr error, want []byte, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: errors %v and %v", name, gotErr, wantErr)
		}
		if string(got) != string(want) {
			t.Errorf("%s: %s, map encoding %s", name, got, want)
		}
	}
	summaries := map[string][]float64{
		"empty":      nil,
		"one sample": {3.25},
		"negative":   {-1.5, -7, 2},
		"1e-7":       {1e-7, 3e-7},
		"1e-12":      {-1e-12, 4.5e-12},
		"1e-6":       {1e-6, 123456.789},
		"1e21":       {1e21, 2.5e21, 7},
	}
	for name, xs := range summaries {
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		got, gotErr := json.Marshal(&s)
		want, wantErr := mapSummary(&s)
		check("summary "+name, got, gotErr, want, wantErr)
		h := NewHistogram(-2, 0.5, 6)
		for _, x := range xs {
			h.Add(x)
		}
		got, gotErr = json.Marshal(h)
		want, wantErr = mapHistogram(h)
		check("histogram "+name, got, gotErr, want, wantErr)
	}

	var s Summary
	for _, x := range summaries["1e21"] {
		s.Add(x)
	}
	if n := testing.AllocsPerRun(100, func() { s.MarshalJSON() }); n != 1 {
		t.Errorf("Summary.MarshalJSON: %v allocations, want 1", n)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var bad Summary
		bad.Add(1)
		bad.Add(x)
		if b, err := json.Marshal(&bad); err == nil {
			t.Errorf("summary with a %v sample encoded as %s, want an error", x, b)
		}
	}
}
