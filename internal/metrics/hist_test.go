package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(0.001)
	var samples []float64
	for i := 1; i <= 10000; i++ {
		v := float64(i) * 0.1
		h.Observe(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		want := ExactQuantile(samples, q)
		if rel := math.Abs(got-want) / want; rel > 0.06 {
			t.Errorf("q%v: got %v want %v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramZeroSamples(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(0)
	h.Observe(0)
	h.Observe(10)
	if h.Quantile(0.5) != 0 {
		t.Fatalf("median = %v, want 0", h.Quantile(0.5))
	}
	if h.Quantile(1.0) < 9 {
		t.Fatalf("p100 = %v, want ~10", h.Quantile(1.0))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	h := NewHistogram(1)
	defer func() {
		if recover() == nil {
			t.Error("negative sample did not panic")
		}
	}()
	h.Observe(-1)
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(1), NewHistogram(1)
	for i := 0; i < 100; i++ {
		a.Observe(1)
		b.Observe(1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1000 || a.Min() != 1 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	med := a.Quantile(0.5)
	if med > 2 {
		t.Fatalf("median = %v, want ~1", med)
	}
}

func TestHistogramMergeGeometryMismatchPanics(t *testing.T) {
	a, b := NewHistogram(1), NewHistogram(2)
	defer func() {
		if recover() == nil {
			t.Error("geometry mismatch did not panic")
		}
	}()
	a.Merge(b)
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Observe(2)
	if h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
}

// Property: quantile estimates are monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(1)
		for _, r := range raw {
			h.Observe(float64(r % 1000000))
		}
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 {
				return false
			}
			if v < h.Min()-1e-9 || v > h.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance is 4; sample variance is 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

// Property: Summary matches direct two-pass computation.
func TestSummaryMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, r := range raw {
			v := float64(r)
			s.Observe(v)
			sum += v
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, r := range raw {
			d := float64(r) - mean
			m2 += d * d
		}
		wantVar := m2 / float64(len(raw)-1)
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Variance()-wantVar) < 1e-4*(1+wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExactQuantile(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if q := ExactQuantile(s, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := ExactQuantile(s, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := ExactQuantile(s, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := ExactQuantile(nil, 0.5); q != 0 {
		t.Fatalf("empty = %v", q)
	}
	// Input must be untouched.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

// TestHistogramQuantileSingleSample checks that every quantile of a
// one-sample distribution is that sample (the bucket upper bound must be
// clamped to the observed max, not rounded up).
func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram(0.001)
	h.Observe(3.7)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3.7 {
			t.Fatalf("Quantile(%v) = %v with single sample 3.7", q, got)
		}
	}
	if h.Min() != 3.7 || h.Max() != 3.7 || h.Mean() != 3.7 {
		t.Fatalf("min/max/mean = %v/%v/%v", h.Min(), h.Max(), h.Mean())
	}
}

// TestHistogramQuantileAllZero checks the zero-bucket path: a
// distribution of only zeros reports zero at every quantile.
func TestHistogramQuantileAllZero(t *testing.T) {
	h := NewHistogram(0.001)
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("Quantile(%v) = %v for all-zero samples", q, got)
		}
	}
	if h.Count() != 100 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("count/sum/max = %d/%v/%v", h.Count(), h.Sum(), h.Max())
	}
}
