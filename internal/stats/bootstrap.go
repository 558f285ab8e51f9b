package stats

import "sort"

// quantileIndex is the index of the q-quantile in n sorted values,
// clamped to [0, n).
func quantileIndex(n int, q float64) int {
	i := int(q * float64(n))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// BootstrapStratified bootstraps the stratified estimator: each stratum
// is resampled independently and the weighted means are combined, giving
// a distribution-free interval for SimProf's CPI estimate.
func BootstrapStratified(strata [][]float64, weights []float64, level float64, rounds int, seed uint64) Interval {
	if len(strata) != len(weights) {
		panic("stats: BootstrapStratified strata/weights mismatch")
	}
	rng := NewRNG(seed)
	var point float64
	for h, s := range strata {
		point += weights[h] * Mean(s)
	}
	if rounds < 2 {
		return Interval{Mean: point, Level: level}
	}
	means := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		var est float64
		for h, s := range strata {
			n := len(s)
			if n == 0 {
				continue
			}
			var sum float64
			for i := 0; i < n; i++ {
				sum += s[rng.IntN(n)]
			}
			est += weights[h] * sum / float64(n)
		}
		means[r] = est
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	lo := means[quantileIndex(rounds, alpha)]
	hi := means[quantileIndex(rounds, 1-alpha)]
	return Interval{Mean: (lo + hi) / 2, Margin: (hi - lo) / 2, Level: level}
}
