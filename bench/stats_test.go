package main

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{6, 50}, {19, 50}, // nothing has ten samples beyond it: the median
		{40, 75},     // 10 of 40 lie beyond p75
		{100, 90},    // 10 of 100 beyond p90
		{499, 95},    // p98 would leave 9.98
		{500, 98},    // exactly ten beyond p98
		{632, 98},    // the serve-live fixture's windows
		{100000, 98}, // never above the metric's own percentile
	} {
		if got := highestPercentile(c.n, 98); got != c.want {
			t.Errorf("highestPercentile(%d, 98) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := highestPercentile(100000, 99.9); got != 99.9 {
		t.Errorf("highestPercentile(100000, 99.9) = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(xs, 98); got != 98 {
		t.Errorf("p98 of 1..100 = %v", got)
	}
	if got := percentile(xs, 50); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 98)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the acceptance procedure uses.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1.0, 1.1, 0.9, 1.3, 1.2, 1.05, 0.95, 1.0, 1.15, 1.02], n=4)
	// [0.9875, 1.035, 1.1625]
	xs := []float64{1.0, 1.1, 0.9, 1.3, 1.2, 1.05, 0.95, 1.0, 1.15, 1.02}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-0.9875) > 1e-12 || math.Abs(q3-1.1625) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 0.9875, 1.1625", q1, q3)
	}
	if got, want := spread(xs), (1.1625-0.9875)/1.035; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([3.0, 1.0], n=4)
	// [0.5, 2.0, 3.5]
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
}
