package sampling

import (
	"context"
	"fmt"
	"math"
	"sort"

	"simprof/internal/obs"
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

// NeymanAllocation distributes the overall sample size n across strata
// proportionally to N_h·σ_h (Eq. 1), with two practical guarantees: no
// stratum is allocated more units than it has, and every non-empty
// stratum gets at least one unit when n allows (a stratum with zero
// sample could not contribute its mean to the stratified estimator).
// Rounding uses largest remainders so that Σ n_h == min(n, ΣN_h).
func NeymanAllocation(Nh []int, sigma []float64, n int) ([]int, error) {
	return neymanAllocation(Nh, Nh, sigma, n)
}

// NeymanAllocationCapacity is NeymanAllocation with a separate
// per-stratum capacity bound: allocation shares stay proportional to
// the population N_h·σ_h, but no stratum is given more than capacity[h]
// units. Beyond degraded-trace sampling (stratum importance from all
// executed units, the drawable frame only from the measured ones), this
// is the entry point for reusing the allocator on other stratified
// budgets — the trace-retention engine splits its keep budget across
// (route, status, latency) strata with it, capped by what each stratum
// has actually seen.
func NeymanAllocationCapacity(Nh, capacity []int, sigma []float64, n int) ([]int, error) {
	return neymanAllocation(Nh, capacity, sigma, n)
}

// neymanAllocation is NeymanAllocation with a separate per-stratum
// capacity: allocation shares stay proportional to the population
// N_h·σ_h, but no stratum is given more than capacity[h] units. This is
// how degraded traces sample — stratum importance comes from all
// executed units, the drawable frame only from the measured ones.
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
	PhaseMean    []float64   // sampled mean CPI per phase
	PhaseSamples [][]float64 // sampled CPIs per phase (for bootstrap CIs)
	Weights      []float64   // N_h/N
	Imputed      []bool      // phases with no measurable units: mean imputed
	DegradedFrac float64     // fraction of population units that were degraded
	SEInflation  float64     // ≥1; how much imputation uncertainty widens the SE
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
	Nh := ph.Sizes()
	capacity := ph.MeasuredSizes()
	totalCap := 0
	for _, c := range capacity {
		totalCap += c
	}
	if totalCap == 0 {
		return Stratified{}, fmt.Errorf("sampling: no measurable units in any phase")
	}
	sigma := make([]float64, ph.K)
	for h := 0; h < ph.K; h++ {
		sigma[h] = stats.StdDev(ph.PhaseCPIs(h))
	}
	alloc, err := neymanAllocation(Nh, capacity, sigma, n)
	if err != nil {
		return Stratified{}, err
	}
	rng := stats.NewRNG(seed)
	out := Stratified{
		Sample:       Sample{Method: "SimProf"},
		Alloc:        alloc,
		PhaseMean:    make([]float64, ph.K),
		PhaseSamples: make([][]float64, ph.K),
		Weights:      ph.Weights(),
		Imputed:      make([]bool, ph.K),
		DegradedFrac: ph.DegradedFraction(),
		SEInflation:  1,
	}
	N := float64(len(ph.Assign))
	var variance float64
	var pooled []float64 // all sampled CPIs, for imputation fallback
	for h := 0; h < ph.K; h++ {
		if err := ctx.Err(); err != nil {
			return Stratified{}, err
		}
		if alloc[h] == 0 {
			continue
		}
		units := ph.MeasuredPhaseUnits(h)
		pick := stats.SampleWithoutReplacement(rng, len(units), alloc[h])
		cpis := make([]float64, 0, alloc[h])
		for _, j := range pick {
			u := units[j]
			out.UnitIDs = append(out.UnitIDs, ph.Trace.Units[u].ID)
			cpis = append(cpis, ph.Trace.Units[u].CPI())
		}
		mean := stats.Mean(cpis)
		out.PhaseMean[h] = mean
		out.PhaseSamples[h] = cpis
		out.EstCPI += out.Weights[h] * mean
		pooled = append(pooled, cpis...)
		// Eq. 4 term: N_h²·(1-n_h/N_h)·s_h²/n_h. The sampled s_h is
		// undefined for n_h==1; fall back to the profiled σ_h.
		sh := sigma[h]
		if len(cpis) > 1 {
			sh = stats.StdDev(cpis)
		}
		// A degraded stratum can leave only a unit or two measurable;
		// when those happen to agree, sh==0 would claim certainty about
		// units whose counters were never observed. Substitute the
		// pooled clean spread instead. Fully-measured strata (the clean
		// path) never take this branch.
		if sh == 0 && capacity[h] < Nh[h] {
			obsSigmaFallbacks.Inc()
			var clean []float64
			for g := 0; g < ph.K; g++ {
				clean = append(clean, ph.PhaseCPIs(g)...)
			}
			sh = stats.StdDev(clean)
		}
		nh := float64(alloc[h])
		NhF := float64(Nh[h])
		variance += NhF * NhF * (1 - nh/NhF) * sh * sh / nh
	}
	measuredVariance := variance

	// Mean-impute strata that exist in the population but have no
	// measurable unit to draw from.
	var sampledWeight, weightedMean float64
	for h := 0; h < ph.K; h++ {
		if alloc[h] > 0 {
			sampledWeight += out.Weights[h]
			weightedMean += out.Weights[h] * out.PhaseMean[h]
		}
	}
	if sampledWeight > 0 {
		pooledMean := weightedMean / sampledWeight
		sPool := stats.StdDev(pooled)
		for h := 0; h < ph.K; h++ {
			if alloc[h] > 0 || Nh[h] == 0 || capacity[h] > 0 {
				continue
			}
			out.Imputed[h] = true
			obsImputedStrata.Inc()
			out.PhaseMean[h] = pooledMean
			out.EstCPI += out.Weights[h] * pooledMean
			NhF := float64(Nh[h])
			variance += NhF * NhF * sPool * sPool
		}
	}
	out.SE = math.Sqrt(variance) / N
	if measuredVariance > 0 && variance > measuredVariance {
		out.SEInflation = math.Sqrt(variance / measuredVariance)
	}
	obsDraws.Add(int64(len(out.UnitIDs)))
	obsSEInflation.Set(out.SEInflation)
	return out, nil
}

// CI returns the confidence interval of the estimate at the given level
// (Eq. 2–3).
func (s Stratified) CI(level float64) stats.Interval {
	return stats.ConfidenceInterval(s.EstCPI, s.SE, level)
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
	Nh := ph.Sizes()
	capacity := ph.MeasuredSizes()
	sigma := make([]float64, ph.K)
	var clean []float64
	for h := 0; h < ph.K; h++ {
		cpis := ph.PhaseCPIs(h)
		sigma[h] = stats.StdDev(cpis)
		clean = append(clean, cpis...)
	}
	alloc, err := neymanAllocation(Nh, capacity, sigma, n)
	if err != nil {
		return 0, err
	}
	sPool := stats.StdDev(clean)
	var variance float64
	for h := 0; h < ph.K; h++ {
		if Nh[h] == 0 {
			continue
		}
		NhF := float64(Nh[h])
		if alloc[h] == 0 {
			// A phase the plan cannot reach (no measurable units) will be
			// imputed at estimation time; budget its uncertainty now.
			if capacity[h] == 0 {
				variance += NhF * NhF * sPool * sPool
			}
			continue
		}
		nh := float64(alloc[h])
		variance += NhF * NhF * (1 - nh/NhF) * sigma[h] * sigma[h] / nh
	}
	return math.Sqrt(variance) / float64(len(ph.Assign)), nil
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
	N := 0
	for _, c := range ph.MeasuredSizes() {
		N += c
	}
	if N == 0 {
		return 0, fmt.Errorf("sampling: no measurable units to size a sample from")
	}
	ok := func(n int) bool {
		se, err := PlanSE(ph, n)
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
