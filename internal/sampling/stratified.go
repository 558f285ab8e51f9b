package sampling

import (
	"context"
	"fmt"
	"math"
	"sort"

	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/phase"
	"simprof/internal/stats"
)

// Allocation telemetry: how the Neyman allocator behaved and how much
// imputation widened the reported uncertainty.
var (
	obsDraws = obs.NewCounter("sampling.draws",
		"simulation points drawn by stratified sampling")
	obsImputedStrata = obs.NewCounter("sampling.imputed_strata",
		"strata with no measurable unit, mean-imputed into the estimate")
	obsSEInflation = obs.NewGauge("sampling.se_inflation",
		"latest SE inflation factor charged for imputation (≥1)")
	obsSigmaFallbacks = obs.NewCounter("sampling.sigma_fallbacks",
		"degraded strata whose zero sampled s_h fell back to the pooled spread")
)

// neymanAllocation distributes the overall sample size n across strata
// proportionally to the population N_h·σ_h (Eq. 1), but gives no stratum
// more than its capacity[h] (measured) units — stratum importance comes
// from all executed units, the drawable frame only from the measured
// ones. Every stratum with capacity gets at least one unit when n allows
// (one with zero sample could not contribute its mean to the estimator),
// and largest-remainder rounding makes Σ n_h == min(n, Σ capacity[h]).
func neymanAllocation(Nh, capacity []int, sigma []float64, n int) ([]int, error) {
	if len(Nh) != len(sigma) {
		return nil, fmt.Errorf("sampling: %d strata sizes but %d sigmas", len(Nh), len(sigma))
	}
	if len(Nh) != len(capacity) {
		return nil, fmt.Errorf("sampling: %d strata sizes but %d capacities", len(Nh), len(capacity))
	}
	k := len(Nh)
	if k == 0 {
		return nil, fmt.Errorf("sampling: no strata")
	}
	total, totalCap := 0, 0
	for h, N := range Nh {
		if N < 0 || sigma[h] < 0 || capacity[h] < 0 {
			return nil, fmt.Errorf("sampling: negative stratum size, capacity or sigma at %d", h)
		}
		if capacity[h] > N {
			return nil, fmt.Errorf("sampling: capacity %d exceeds stratum size %d at %d", capacity[h], N, h)
		}
		total += N
		totalCap += capacity[h]
	}
	if n > totalCap {
		n = totalCap
	}
	alloc := make([]int, k)
	if n <= 0 {
		return alloc, nil
	}

	// Reserve one unit per drawable stratum first.
	reserved := 0
	for h := range Nh {
		if capacity[h] > 0 && reserved < n {
			alloc[h] = 1
			reserved++
		}
	}
	rest := n - reserved

	// Distribute the remainder ∝ N_h·σ_h with largest-remainder rounding.
	var denom float64
	for h := range Nh {
		if capacity[h] > 0 {
			denom += float64(Nh[h]) * sigma[h]
		}
	}
	type frac struct {
		h int
		f float64
	}
	var fracs []frac
	if denom > 0 && rest > 0 {
		given := 0
		for h := range Nh {
			if capacity[h] == 0 {
				continue
			}
			share := float64(rest) * float64(Nh[h]) * sigma[h] / denom
			whole := int(share)
			// Respect capacity.
			if alloc[h]+whole > capacity[h] {
				whole = capacity[h] - alloc[h]
			}
			alloc[h] += whole
			given += whole
			fracs = append(fracs, frac{h, share - float64(int(share))})
		}
		sort.Slice(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
		for _, fr := range fracs {
			if given >= rest {
				break
			}
			if alloc[fr.h] < capacity[fr.h] {
				alloc[fr.h]++
				given++
			}
		}
		// Any slack left (capacity limits): spill to strata with room.
		for h := range Nh {
			for given < rest && alloc[h] < capacity[h] {
				alloc[h]++
				given++
			}
		}
	} else if rest > 0 {
		// All sigmas zero: fall back to proportional allocation.
		given := 0
		for h := range Nh {
			share := rest * Nh[h] / total
			if alloc[h]+share > capacity[h] {
				share = capacity[h] - alloc[h]
			}
			alloc[h] += share
			given += share
		}
		for h := 0; given < rest && h < k; h++ {
			for given < rest && alloc[h] < capacity[h] {
				alloc[h]++
				given++
			}
		}
	}
	return alloc, nil
}

// Stratified is a SimProf sample: stratified random selection with the
// allocation that produced it.
type Stratified struct {
	Sample
	Alloc        []int       // sample size per phase
	PhaseMean    []float64   // sampled mean CPI per phase; the pooled mean where imputed
	PhaseSamples [][]float64 // sampled CPIs per phase in draw order; nil where none was drawn
	Weights      []float64   // N_h/N
	Imputed      []bool      // phases with no measurable units: mean imputed
	DegradedFrac float64     // fraction of population units that were degraded
	SEInflation  float64     // ≥1; how much imputation uncertainty widens the SE
	frame        frame
}

// frame is the population side of the stratified estimator: each
// phase's size and measured units, and the spreads Eq. 4 falls back on
// where a sample cannot supply its own. A sample keeps its frame and its
// drawn unit indices, so that EstimateOnTrace reads only the chosen
// points of a target trace.
type frame struct {
	drawn    []int     // a sample's drawn unit indices, aligned with UnitIDs
	Nh       []int     // population per phase
	capacity []int     // measured units per phase (the drawable frame)
	sigma    []float64 // σ_h, for a phase with fewer than two samples
	flat     float64   // for a degraded phase whose spread comes out 0
	pool     float64   // the imputation spread of a plan, which has no samples
}

// stratify is the stratified estimator of Eq. 1–5, shared by the
// profiled sample (SimProfCtx), the target-design estimate
// (EstimateOnTrace) and the sample-size plan (planSE, which passes
// ys == nil: fr.sigma stands in for every sampled spread). Stratum h has
// the n[h] sampled values ys[h]. It fills EstCPI, SE, Weights,
// PhaseMean, Imputed and SEInflation, and counts the strata that fell
// back on fr.flat.
//
// The estimate is Σ W_h·ȳ_h, and its variance is Eq. 4's
// Σ N_h²·(1-n_h/N_h)·s_h²/n_h over N². s_h is undefined for n_h == 1
// and falls back to fr.sigma[h]. A degraded stratum (capacity < N_h) can
// leave only a unit or two measurable; when those agree, s_h == 0 would
// claim certainty about units never observed, so it takes fr.flat. A
// stratum with no measurable unit is mean-imputed from the sampled
// strata (renormalizing the weights over them) and charged N_h²·s_pool²,
// s_pool the spread of all sampled values (fr.pool for a plan).
func stratify(fr frame, n []int, ys [][]float64) (est Stratified, flats int) {
	Nh, capacity := fr.Nh, fr.capacity
	total := 0
	for _, size := range Nh {
		total += size
	}
	N := float64(total)
	est.Weights = make([]float64, len(Nh))
	for h, size := range Nh {
		est.Weights[h] = float64(size) / N
	}
	est.PhaseMean, est.Imputed, est.SEInflation = make([]float64, len(Nh)), make([]bool, len(Nh)), 1
	var variance, sampledWeight, weightedMean float64
	var pooled []float64
	for h, nh := range n {
		if nh == 0 {
			continue
		}
		sh := fr.sigma[h]
		if ys != nil {
			est.PhaseMean[h] = stats.Mean(ys[h])
			est.EstCPI += est.Weights[h] * est.PhaseMean[h]
			pooled = append(pooled, ys[h]...)
			if nh > 1 {
				sh = stats.StdDev(ys[h])
			}
		}
		if sh == 0 && capacity[h] < Nh[h] {
			flats++
			sh = fr.flat
		}
		nhF, NhF := float64(nh), float64(Nh[h])
		variance += NhF * NhF * (1 - nhF/NhF) * sh * sh / nhF
		sampledWeight += est.Weights[h]
		weightedMean += est.Weights[h] * est.PhaseMean[h]
	}
	measured := variance
	if sampledWeight > 0 {
		pooledMean := weightedMean / sampledWeight
		sPool := fr.pool
		if ys != nil {
			sPool = stats.StdDev(pooled)
		}
		for h, nh := range n {
			if nh > 0 || Nh[h] == 0 || capacity[h] > 0 {
				continue
			}
			est.Imputed[h] = true
			est.PhaseMean[h] = pooledMean
			est.EstCPI += est.Weights[h] * pooledMean
			NhF := float64(Nh[h])
			variance += NhF * NhF * sPool * sPool
		}
	}
	est.SE = math.Sqrt(variance) / N
	if measured > 0 && variance > measured {
		est.SEInflation = math.Sqrt(variance / measured)
	}
	return est, flats
}

// SimProf draws the stratified random sample of total size n from the
// phases (Eq. 1), estimates CPI as Σ W_h·ȳ_h, and computes the
// stratified standard error (Eq. 4) from the sampled per-phase standard
// deviations (Eq. 5).
//
// On degraded traces the sampling frame of each stratum is restricted to
// its measured units (quality-clean, valid counters): allocation weights
// still follow the population N_h·σ_h, but draws never land on a unit
// whose CPI would be fabricated. A stratum with no measured units at all
// is mean-imputed from the sampled strata — equivalent to renormalizing
// weights over the observed strata — and charged a conservative
// N_h²·s_pool² variance term so the reported CI widens instead of
// pretending the missing phase was measured.
func SimProf(ph *phase.Phases, n int, seed uint64) (Stratified, error) {
	return SimProfCtx(context.Background(), ph, n, seed)
}

// SimProfCtx is SimProf under a context: cancellation is checked at
// entry and between strata, so an abandoned request stops scanning and
// drawing. A successful SimProfCtx is bit-for-bit SimProf — the context
// either aborts the draw with its error or changes nothing.
func SimProfCtx(ctx context.Context, ph *phase.Phases, n int, seed uint64) (Stratified, error) {
	_, span := obs.StartSpan(ctx, "sampling.simprof")
	defer span.End()
	if err := ctx.Err(); err != nil {
		return Stratified{}, err
	}
	if ph.K == 0 || len(ph.Assign) == 0 {
		return Stratified{}, fmt.Errorf("sampling: no phases")
	}
	st, err := scanStrata(parallel.Default().WithContext(ctx), ph)
	if err != nil {
		return Stratified{}, err
	}
	if len(st.all) == 0 {
		return Stratified{}, fmt.Errorf("sampling: no measurable units in any phase")
	}
	alloc, err := neymanAllocation(st.Nh, st.capacity, st.sigma, n)
	if err != nil {
		return Stratified{}, err
	}
	fr := st.frame
	if len(st.all) < len(ph.Assign) {
		// Only a degraded stratum takes the flat fallback: the pooled
		// spread of every measured CPI.
		fr.flat = stats.StdDev(st.all)
	}
	rng := stats.NewRNG(seed)
	ys := make([][]float64, ph.K)
	var ids []int
	for h, nh := range alloc {
		if err := ctx.Err(); err != nil {
			return Stratified{}, err
		}
		if nh == 0 {
			continue
		}
		units := st.units[h]
		ys[h] = make([]float64, 0, nh)
		for _, j := range stats.SampleWithoutReplacement(rng, len(units), nh) {
			fr.drawn = append(fr.drawn, units[j])
			ids = append(ids, ph.Trace.Units[units[j]].ID)
			ys[h] = append(ys[h], st.cpis[h][j])
		}
	}
	out, flats := stratify(fr, alloc, ys)
	out.Method, out.UnitIDs = "SimProf", ids
	out.Alloc, out.PhaseSamples, out.frame = alloc, ys, fr
	out.DegradedFrac = float64(len(ph.Assign)-len(st.all)) / float64(len(ph.Assign))
	obsDraws.Add(int64(len(ids)))
	obsSigmaFallbacks.Add(int64(flats))
	for _, imputed := range out.Imputed {
		if imputed {
			obsImputedStrata.Inc()
		}
	}
	obsSEInflation.Set(out.SEInflation)
	return out, nil
}

// BootstrapCI returns a distribution-free percentile-bootstrap interval
// for the stratified estimate — a cross-check of the CLT interval that
// Eq. 2–3 assume, useful when optimal allocation leaves some phases
// with only a handful of points. Weights are renormalized over the
// strata that actually hold samples (mean imputation is exactly this
// renormalization), and the margin is widened by the imputation
// SE-inflation factor so degraded traces report honest uncertainty.
func (s Stratified) BootstrapCI(level float64, rounds int, seed uint64) stats.Interval {
	weights := s.Weights
	var present float64
	empty := false
	for h, samp := range s.PhaseSamples {
		if len(samp) > 0 {
			present += s.Weights[h]
		} else if s.Weights[h] > 0 {
			empty = true
		}
	}
	if empty && present > 0 {
		weights = make([]float64, len(s.Weights))
		for h, samp := range s.PhaseSamples {
			if len(samp) > 0 {
				weights[h] = s.Weights[h] / present
			}
		}
	}
	iv := stats.BootstrapStratified(s.PhaseSamples, weights, level, rounds, seed)
	if s.SEInflation > 1 {
		iv.Margin *= s.SEInflation
	}
	// Degenerate bootstrap (each stratum holds a single value, or all
	// values coincide) collapses to a zero-width interval even when the
	// analytic SE knows better — fall back to the CLT interval instead
	// of reporting impossible precision.
	if iv.Margin == 0 && s.SE > 0 {
		return stats.ConfidenceInterval(s.EstCPI, s.SE, level)
	}
	return iv
}

// PlanSE predicts the stratified standard error a sample of size n
// would achieve, using the profiled per-phase σ (available for free from
// the hardware counters) — the planning loop of §III-C.
func PlanSE(ph *phase.Phases, n int) (float64, error) {
	st, err := scanStrata(parallel.Default(), ph)
	if err != nil {
		return 0, err
	}
	st.pool = stats.StdDev(st.all)
	return planSE(st, n)
}

// planSE is PlanSE over a scanned population whose pool is the spread of
// every measured CPI, charged to strata the plan cannot reach. The plan
// replaces no zero σ_h of a degraded stratum (its flat spread is 0).
func planSE(st strata, n int) (float64, error) {
	alloc, err := neymanAllocation(st.Nh, st.capacity, st.sigma, n)
	if err != nil {
		return 0, err
	}
	est, _ := stratify(st.frame, alloc, nil)
	return est.SE, nil
}

// RequiredSampleSize returns the smallest overall sample size whose
// predicted margin of error (z·SE) is at most relErr × the oracle CPI at
// the given confidence level — the quantity Fig. 8 reports for 5% and 2%
// errors at 99.7% confidence. It binary-searches n (the margin is
// monotone non-increasing in n).
func RequiredSampleSize(ph *phase.Phases, relErr, level float64) (int, error) {
	if relErr <= 0 {
		return 0, fmt.Errorf("sampling: relErr=%v must be positive", relErr)
	}
	target := relErr * ph.Trace.OracleCPI()
	z := stats.ZForConfidence(level)
	// The drawable population is the measured units; asking for more
	// cannot shrink the SE further (degraded strata keep their
	// imputation-variance floor no matter the budget).
	st, err := scanStrata(parallel.Default(), ph)
	if err != nil {
		return 0, err
	}
	N := len(st.all)
	if N == 0 {
		return 0, fmt.Errorf("sampling: no measurable units to size a sample from")
	}
	st.pool = stats.StdDev(st.all)
	ok := func(n int) bool {
		se, err := planSE(st, n)
		if err != nil {
			return false
		}
		return z*se <= target
	}
	if !ok(N) {
		return N, nil // even a census can't beat the target (shouldn't happen: SE(N)=0)
	}
	lo, hi := 1, N
	for lo < hi {
		mid := (lo + hi) / 2
		if ok(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// strata is the measured population of every phase, collected in one
// read of the unit rows: units[h] holds phase h's measured unit indices
// in ascending order and cpis[h] their CPIs. The per-phase windows sit
// back to back in one phase-major array, so all is every measured CPI in
// phase order — the pooled population of the σ fallbacks. Measured
// status is read afresh on every scan, never cached on the Phases: unit
// quality may change after formation.
type strata struct {
	frame             // σ_h is the spread of each phase's measured CPIs
	units [][]int     // measured unit indices per phase
	cpis  [][]float64 // their CPIs, aligned with units
	all   []float64   // every measured CPI, phase-major
}

// strataChunk is the fixed per-chunk unit count of the stratum scan, a
// constant of its determinism contract.
const strataChunk = 1 << 14

// scanStrata collects the strata over the fixed strataChunk grid of the
// units on eng, in three passes. Count: each chunk counts its members of
// every phase, from Assign alone. Offset: phase h's region of one
// phase-major array starts after the populations of the phases before
// it, and chunk c's part of that region after the members earlier
// chunks hold. Fill: each chunk reads its unit rows once, writing its
// measured units into its parts. The gaps unmeasured units leave are
// closed afterwards, so the windows are contiguous and the result is the
// same for every worker count. A canceled eng returns its error.
func scanStrata(eng *parallel.Engine, ph *phase.Phases) (strata, error) {
	K, n := ph.K, len(ph.Assign)
	st := strata{
		frame: frame{Nh: ph.Sizes(), capacity: make([]int, K), sigma: make([]float64, K)},
		units: make([][]int, K),
		cpis:  make([][]float64, K),
	}
	chunks := parallel.Chunks(n, strataChunk)
	// start[c*K+h] counts, then locates, chunk c's part of phase h.
	start := make([]int, chunks*K)
	eng.ForEachChunk(n, strataChunk, func(c, lo, hi int) {
		count := start[c*K : (c+1)*K]
		for _, h := range ph.Assign[lo:hi] {
			count[h]++
		}
	})
	if err := eng.Err(); err != nil {
		return strata{}, err
	}
	off := 0
	for h := 0; h < K; h++ {
		for j := h; j < len(start); j += K {
			start[j], off = off, off+start[j]
		}
	}
	idx := make([]int, n)
	cpi := make([]float64, n)
	filled := make([]int, chunks*K) // measured units each part holds
	tr := ph.Trace
	eng.ForEachChunk(n, strataChunk, func(c, lo, hi int) {
		at, fill := start[c*K:(c+1)*K], filled[c*K:(c+1)*K]
		for i := lo; i < hi; i++ {
			if h := ph.Assign[i]; ph.UnitMeasured(i) {
				p := at[h] + fill[h]
				idx[p] = i
				cpi[p] = tr.Units[i].CPI()
				fill[h]++
			}
		}
	})
	if err := eng.Err(); err != nil {
		return strata{}, err
	}
	pos := 0
	for h := 0; h < K; h++ {
		first := pos
		for j := h; j < len(start); j += K {
			if s, k := start[j], filled[j]; s != pos {
				copy(idx[pos:], idx[s:s+k])
				copy(cpi[pos:], cpi[s:s+k])
			}
			pos += filled[j]
		}
		st.units[h] = idx[first:pos:pos]
		st.cpis[h] = cpi[first:pos:pos]
		st.capacity[h] = pos - first
		st.sigma[h] = stats.StdDev(st.cpis[h])
	}
	st.all = cpi[:pos]
	return st, nil
}
