package stats

import (
	"math"
	"sort"
	"testing"
)

func TestBootstrapCoversTrueMean(t *testing.T) {
	rng := NewRNG(3)
	misses := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		xs := make([]float64, 60)
		for i := range xs {
			xs[i] = 2 + 0.4*rng.NormFloat64()
		}
		ci := Bootstrap(xs, 0.95, 600, uint64(r))
		if !ci.Contains(2) {
			misses++
		}
	}
	// 95% interval should miss ~2 of 40; allow slack.
	if misses > 7 {
		t.Fatalf("bootstrap CI missed true mean %d/%d times", misses, reps)
	}
}

func TestBootstrapMatchesNormalTheoryOnGaussian(t *testing.T) {
	rng := NewRNG(5)
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	boot := Bootstrap(xs, 0.95, 2000, 9)
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	norm := ConfidenceInterval(Mean(xs), se, 0.95)
	if math.Abs(boot.Margin-norm.Margin) > 0.4*norm.Margin {
		t.Fatalf("bootstrap margin %v far from normal-theory %v", boot.Margin, norm.Margin)
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	ci := Bootstrap([]float64{5}, 0.95, 100, 1)
	if ci.Mean != 5 || ci.Margin != 0 {
		t.Fatalf("single sample CI %v", ci)
	}
	ci = Bootstrap(nil, 0.95, 100, 1)
	if ci.Margin != 0 {
		t.Fatal("empty sample should have zero margin")
	}
}

func TestBootstrapStratified(t *testing.T) {
	rng := NewRNG(7)
	strata := [][]float64{make([]float64, 40), make([]float64, 40)}
	for i := range strata[0] {
		strata[0][i] = 1 + 0.05*rng.NormFloat64()
		strata[1][i] = 3 + 0.2*rng.NormFloat64()
	}
	weights := []float64{0.7, 0.3}
	ci := BootstrapStratified(strata, weights, 0.95, 1000, 11)
	want := 0.7*1 + 0.3*3
	if math.Abs(ci.Mean-want) > 0.1 {
		t.Fatalf("stratified bootstrap mean %v want ≈%v", ci.Mean, want)
	}
	if ci.Margin <= 0 || ci.Margin > 0.2 {
		t.Fatalf("margin %v implausible", ci.Margin)
	}
	// Empty stratum tolerated.
	ci2 := BootstrapStratified([][]float64{{1, 2}, {}}, []float64{1, 0}, 0.95, 200, 3)
	if math.IsNaN(ci2.Mean) {
		t.Fatal("NaN with empty stratum")
	}
}

// Bootstrap computes a percentile-bootstrap confidence interval for the
// mean of xs: resample with replacement B times, take the empirical
// quantiles of the resampled means. It needs no normality assumption —
// a useful cross-check of the CLT-based intervals the paper uses
// (Eq. 2–3), especially for the small per-phase sample sizes optimal
// allocation produces.
func Bootstrap(xs []float64, level float64, rounds int, seed uint64) Interval {
	n := len(xs)
	mean := Mean(xs)
	if n < 2 || rounds < 2 {
		return Interval{Mean: mean, Level: level}
	}
	rng := NewRNG(seed)
	means := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		var s float64
		for i := 0; i < n; i++ {
			s += xs[rng.IntN(n)]
		}
		means[r] = s / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	lo := means[quantileIndex(rounds, alpha)]
	hi := means[quantileIndex(rounds, 1-alpha)]
	// Represent as a symmetric-ish interval around the point estimate;
	// Margin is half the percentile width so Lo/Hi reproduce it.
	return Interval{Mean: (lo + hi) / 2, Margin: (hi - lo) / 2, Level: level}
}
