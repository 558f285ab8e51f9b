package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile, so that the tail is measured rather than read off the
// single slowest operation.
const minBeyond = 10

// tailPercentile returns the highest whole percentile in [50, 99] whose
// nearest-rank sample has at least minBeyond samples above it: p99 of
// 1000, p96 of 300, p75 of 40. Below 2·minBeyond+1 samples no
// percentile qualifies and the median stands in.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of vals (NaN when
// empty). vals need not be sorted; it is not modified.
func percentile(vals []float64, p int) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), which is how run-to-run spread is judged:
// Q1, median and Q3 by linear interpolation at positions (n+1)·i/4.
// A single value is its own quartiles; no values give NaNs.
func quartiles(vals []float64) (q1, med, q3 float64) {
	switch len(vals) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld, m := len(s), len(s)+1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// mean returns the arithmetic mean (0 when empty).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf maps durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// pct is 100·num/den, 0 when den is 0 (a layer the workload never
// reached did no work, so its share is zero).
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianDur returns the median of repeated set-up timings.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}
