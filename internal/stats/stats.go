// Package stats provides the statistical machinery SimProf builds on:
// descriptive statistics (mean, variance, coefficient of variation),
// normal quantiles and confidence intervals, Pearson correlation and the
// univariate linear-regression feature score (f_regression) used for
// method selection, and seeded RNG constructors so that every experiment
// is reproducible.
package stats

import (
	"errors"
	"math"
	"sort"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1).
// It returns 0 for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population variance (divisor n).
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (sample stddev over mean).
// It returns 0 when the mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Summary holds the descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	CoV    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. A zero Summary is returned for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Mean: Mean(xs), Var: Variance(xs)}
	s.Std = math.Sqrt(s.Var)
	if s.Mean != 0 {
		s.CoV = s.Std / math.Abs(s.Mean)
	}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// WeightedMean returns Σ w_i x_i / Σ w_i. Weights must be non-negative;
// it returns 0 when the total weight is 0.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var sw, sx float64
	for i, x := range xs {
		sw += ws[i]
		sx += ws[i] * x
	}
	if sw == 0 {
		return 0
	}
	return sx / sw
}

// Pearson returns the Pearson correlation coefficient of (xs, ys).
// It returns 0 when either sample is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
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

// FScore converts a Pearson correlation r over n observations into the
// univariate linear-regression F statistic used by f_regression:
//
//	F = r²/(1-r²) · (n-2)
//
// A perfectly correlated feature gets +Inf.
func FScore(r float64, n int) float64 {
	if n < 3 {
		return 0
	}
	r2 := r * r
	if r2 >= 1 {
		return math.Inf(1)
	}
	return r2 / (1 - r2) * float64(n-2)
}

// featureChunk is the fixed per-chunk column count of the F-regression
// scoring fan-out.
const featureChunk = 32

// rowChunk is the fixed per-chunk row count of F-regression's two
// nonzero passes. Like featureChunk it is part of the determinism
// contract, never a knob: the summation order of every column follows
// this grid.
const rowChunk = 1 << 14

// FRegressionSparseWith scores each feature column of a CSR matrix
// against the target without ever materializing the dense feature
// space. X holds one row per observation over the full feature space;
// rows selects the observations to score (e.g. the fully observed
// sampling units) and target is aligned with rows. The per-column sums
// visit only stored nonzeros — O(nnz) instead of O(n·d) — and each
// column's zero entries contribute their closed form: a zero deviates
// from the column mean by exactly −mx, so the n−nnz zero terms add
// (n−nnz)·mx² to Σ(x−mx)² and −mx·Σ_{zeros}(y−my) to Σ(x−mx)(y−my).
//
// Both nonzero passes (column sums and counts, then the centered
// second-order sums) run over a fixed grid of rowChunk entries of rows
// on eng: each chunk sums its rows in the given order into its own
// column partials, and the partials are added in chunk order. Scores are
// therefore the same bits for every worker count, and bit-identical to
// a serial scan of rows whenever rows fits one chunk. Across chunks the
// sums are regrouped, so scores agree with the dense oracle (FScore of
// each column's Pearson r against the target) to float rounding, not
// bit-for-bit; columns with identical content still get identical
// scores, keeping TopK ties deterministic.
//
// The extra memory is the per-chunk partials, 36 bytes per column per
// chunk: ⌈len(rows)/rowChunk⌉·d·36 bytes (2.2 MB for a million rows of
// 1000 columns), never an n×d array. On a context-bound eng that ends
// mid-pass the scores are incomplete; callers check eng.Err.
func FRegressionSparseWith(eng *parallel.Engine, X *matrix.Sparse, rows []int, target []float64) []float64 {
	n := len(rows)
	if n != len(target) {
		panic("stats: FRegression rows/target mismatch")
	}
	d := X.Cols()
	scores := make([]float64, d)
	if n < 3 {
		return scores // FScore is 0 below 3 observations
	}
	my := Mean(target)
	var syy, sydev float64
	ydev := make([]float64, n)
	for i, y := range target {
		dy := y - my
		ydev[i] = dy
		syy += dy * dy
		sydev += dy
	}
	chunks := parallel.Chunks(n, rowChunk)
	// Pass 1: column sums and nonzero counts. Chunk c owns
	// sx[c*d:(c+1)*d] and nnz[c*d:(c+1)*d]; the merge folds them into
	// the first d entries.
	sx := make([]float64, chunks*d)
	nnz := make([]int32, chunks*d)
	eng.ForEachChunk(n, rowChunk, func(c, lo, hi int) {
		csx, cnnz := sx[c*d:(c+1)*d], nnz[c*d:(c+1)*d]
		for _, r := range rows[lo:hi] {
			cs, vs := X.Row(r)
			for k, col := range cs {
				csx[col] += vs[k]
				cnnz[col]++
			}
		}
	})
	if eng.Err() != nil {
		return scores
	}
	for c := 1; c < chunks; c++ {
		for j, v := range sx[c*d : (c+1)*d] {
			sx[j] += v
		}
		for j, k := range nnz[c*d : (c+1)*d] {
			nnz[j] += k
		}
	}
	mx := make([]float64, d)
	for j := range mx {
		mx[j] = sx[j] / float64(n)
	}
	// Pass 2: centered second-order sums over the nonzeros. Chunk c owns
	// the three d-column runs at second[3*c*d:]: Σ dx², Σ dx·dy and
	// Σ ydev over the rows where the column is nonzero.
	second := make([]float64, 3*chunks*d)
	eng.ForEachChunk(n, rowChunk, func(c, lo, hi int) {
		part := second[3*c*d : 3*(c+1)*d]
		sxx, sxy, synz := part[:d], part[d:2*d], part[2*d:]
		for i := lo; i < hi; i++ {
			cs, vs := X.Row(rows[i])
			dy := ydev[i]
			for k, col := range cs {
				dx := vs[k] - mx[col]
				sxx[col] += dx * dx
				sxy[col] += dx * dy
				synz[col] += dy
			}
		}
	})
	if eng.Err() != nil {
		return scores
	}
	// Merge the partials in chunk order, fold the zero entries' closed
	// form and score; columns are independent, so each lands in its own
	// slot for any worker count.
	eng.ForEachChunk(d, featureChunk, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			sxx, sxy, synz := second[j], second[d+j], second[2*d+j]
			for c := 1; c < chunks; c++ {
				part := second[3*c*d:]
				sxx += part[j]
				sxy += part[d+j]
				synz += part[2*d+j]
			}
			zeros := float64(n - int(nnz[j]))
			vxx := sxx + zeros*mx[j]*mx[j]
			vxy := sxy - mx[j]*(sydev-synz)
			if vxx == 0 || syy == 0 {
				scores[j] = 0 // constant column or constant target
				continue
			}
			scores[j] = FScore(vxy/math.Sqrt(vxx*syy), n)
		}
	})
	return scores
}

// TopK returns the indices of the k largest scores, in descending score
// order (ties broken by lower index). NaN scores rank last. If k exceeds
// the number of scores, all indices are returned.
func TopK(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := scores[idx[a]], scores[idx[b]]
		if math.IsNaN(sa) {
			return false
		}
		if math.IsNaN(sb) {
			return true
		}
		return sa > sb
	})
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// RelErr returns |got-want|/|want|, or 0 when both are zero. It is the
// error metric used throughout the evaluation (predicted vs oracle CPI).
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
