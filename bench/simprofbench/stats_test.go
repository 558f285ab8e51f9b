package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1000, 99},
		{300, 96},
		{40, 75},
		{21, 52},
		{20, 50}, // no percentile above the median has ten samples beyond it
		{1, 50},
	} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, p, tc.want)
		}
		if p > 50 {
			if beyond := tc.n - rank(tc.n, p); beyond < minBeyond {
				t.Errorf("n=%d p%d leaves %d samples beyond, want ≥ %d", tc.n, p, beyond, minBeyond)
			}
			if beyond := tc.n - rank(tc.n, p+1); p < 99 && beyond >= minBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond, so p%d is not the highest", tc.n, p+1, beyond, p)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // 300..1, unsorted on purpose
	}
	if got := percentile(vals, 96); got != 288 {
		t.Errorf("p96 of 1..300 = %g, want 288", got)
	}
	if got := percentile(vals, 50); got != 150 {
		t.Errorf("p50 of 1..300 = %g, want 150", got)
	}
	if vals[0] != 300 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// Run-to-run spread is judged with Python's statistics.quantiles(v,
// n=4); these are its outputs for the same inputs.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		vals      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 8}, 3, 6, 9}, // extrapolates beyond the data, as Python does
	} {
		q1, m, q3 := quartiles(tc.vals)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.vals, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
