package sampling

import (
	"fmt"

	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// EstimateOnTrace re-uses a stratified sample chosen on the *profiled*
// machine to estimate the mean CPI of the same workload on a different
// target (a candidate design): only the selected units' CPIs are read
// from the target trace — exactly what "simulate only the simulation
// points on the new design" means. This works because sampling-unit
// boundaries are instruction counts, which do not depend on the
// machine's timing, so unit IDs align between the profiling run and any
// detailed-simulation run of the same workload build.
//
// (For Hadoop traces the per-core merge order can differ between
// machines with very different timing; the design-exploration workflow
// is therefore validated on Spark workloads, whose executor threads are
// fixed.)
//
// The estimate and its SE are the sample's estimator (the same strata,
// weights and imputed strata) on the target CPIs of the chosen points,
// which are all it reads. A profiled spread Eq. 4 falls back on is scaled
// by the ratio of the target's to the profile's sample mean, per stratum
// or over all points; on the profiled trace itself every ratio is 1 and
// the estimate is the sample's own, bit for bit.
//
// A point whose target unit carries no valid CPI (zero instructions or
// lost counters) is an error: its CPI is unknown, and reading it as 0
// would fabricate the phase mean the estimate is made of. So is a sample
// drawn from other phases.
func EstimateOnTrace(ph *phase.Phases, sp Stratified, target *trace.Trace) (Sample, error) {
	if len(target.Units) != len(ph.Trace.Units) {
		return Sample{}, fmt.Errorf(
			"sampling: target trace has %d units, profiling trace has %d — not the same workload build",
			len(target.Units), len(ph.Trace.Units))
	}
	if len(sp.Alloc) != ph.K {
		return Sample{}, fmt.Errorf("sampling: sample has %d phases but the phases have %d — drawn from other phases",
			len(sp.Alloc), ph.K)
	}
	if len(sp.frame.Nh) != ph.K || len(sp.frame.drawn) != len(sp.UnitIDs) {
		return Sample{}, fmt.Errorf("sampling: sample was not drawn by SimProf")
	}
	// SimProfCtx draws phase by phase: the points of phase h are the
	// next Alloc[h] drawn units.
	ys := make([][]float64, ph.K)
	fr := sp.frame
	fr.sigma = make([]float64, ph.K)
	var tAll, pAll float64
	next := 0
	for h, nh := range sp.Alloc {
		if nh == 0 {
			continue
		}
		ys[h] = make([]float64, nh)
		for j := range ys[h] {
			i := fr.drawn[next]
			if i >= len(target.Units) {
				return Sample{}, fmt.Errorf("sampling: point %d not in profiling trace", sp.UnitIDs[next])
			}
			u := &target.Units[i]
			if !u.CPIValid() {
				return Sample{}, fmt.Errorf("sampling: point %d has no valid CPI on the target trace", sp.UnitIDs[next])
			}
			ys[h][j] = u.CPI()
			next++
		}
		mean := stats.Mean(ys[h])
		fr.sigma[h] = sp.frame.sigma[h] * (mean / sp.PhaseMean[h])
		tAll += float64(nh) * mean
		pAll += float64(nh) * sp.PhaseMean[h]
	}
	fr.flat *= tAll / pAll
	est, _ := stratify(fr, sp.Alloc, ys)
	return Sample{Method: "SimProf(design)", UnitIDs: sp.UnitIDs, EstCPI: est.EstCPI, SE: est.SE}, nil
}
