package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	got, err := percentile(seq(200), 0.95)
	if err != nil {
		t.Fatalf("200 samples: %v", err)
	}
	if got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (10 samples beyond)", got)
	}
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(seq(100), 0.90); err != nil {
		t.Errorf("p90 of 100 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
