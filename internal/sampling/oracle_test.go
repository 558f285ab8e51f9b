package sampling

import (
	"context"
	"fmt"
	"math"

	"simprof/internal/phase"
	"simprof/internal/stats"
)

// The five-pass reference for the stratum scan: SimProfCtx, PlanSE and
// RequiredSampleSize as they read every per-phase quantity through its
// own Phases accessor (MeasuredSizes, PhaseCPIs per phase, the measured
// frame per drawn phase, DegradedFraction). The production code collects
// all of it in one pass over the assignment and must match this bit for
// bit (TestStratumScanMatchesOracle).

// phaseUnits is phase h's member units in ascending index order, from a
// plain scan of the assignment.
func phaseUnits(ph *phase.Phases, h int) []int {
	var out []int
	for i, a := range ph.Assign {
		if a == h {
			out = append(out, i)
		}
	}
	return out
}

// oracleMeasuredUnits is phase h's drawable frame: its member units that
// carry a usable CPI, in ascending index order.
func oracleMeasuredUnits(ph *phase.Phases, h int) []int {
	var out []int
	for _, i := range phaseUnits(ph, h) {
		if ph.UnitMeasured(i) {
			out = append(out, i)
		}
	}
	return out
}

func oracleSimProf(ctx context.Context, ph *phase.Phases, n int, seed uint64) (Stratified, error) {
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
		frame:        frame{Nh: Nh, capacity: capacity, sigma: sigma},
	}
	if out.DegradedFrac > 0 {
		var clean []float64
		for g := 0; g < ph.K; g++ {
			clean = append(clean, ph.PhaseCPIs(g)...)
		}
		out.frame.flat = stats.StdDev(clean)
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
		units := oracleMeasuredUnits(ph, h)
		pick := stats.SampleWithoutReplacement(rng, len(units), alloc[h])
		cpis := make([]float64, 0, alloc[h])
		for _, j := range pick {
			u := units[j]
			out.frame.drawn = append(out.frame.drawn, u)
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
	return out, nil
}

func oraclePlanSE(ph *phase.Phases, n int) (float64, error) {
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

func oracleRequiredSampleSize(ph *phase.Phases, relErr, level float64) (int, error) {
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
		se, err := oraclePlanSE(ph, n)
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
