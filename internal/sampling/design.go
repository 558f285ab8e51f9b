package sampling

import (
	"fmt"

	"simprof/internal/phase"
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
// A point whose target unit carries no valid CPI (zero instructions or
// lost counters) is an error: its CPI is unknown, and reading it as 0
// would fabricate the phase mean the estimate is made of.
func EstimateOnTrace(ph *phase.Phases, sp Stratified, target *trace.Trace) (Sample, error) {
	if len(target.Units) != len(ph.Trace.Units) {
		return Sample{}, fmt.Errorf(
			"sampling: target trace has %d units, profiling trace has %d — not the same workload build",
			len(target.Units), len(ph.Trace.Units))
	}
	// Unit ids are dense on every validated trace, making the id→index
	// map the identity; the map is only built for hand-assembled traces
	// that renumbered units.
	units := ph.Trace.Units
	dense := true
	for i := range units {
		if units[i].ID != i {
			dense = false
			break
		}
	}
	var byID map[int]int
	if !dense {
		byID = make(map[int]int, len(units))
		for i := range units {
			byID[units[i].ID] = i
		}
	}
	// Per-phase means of the selected points, evaluated on the target.
	sums := make([]float64, ph.K)
	counts := make([]int, ph.K)
	for _, id := range sp.UnitIDs {
		var i int
		if dense {
			if id < 0 || id >= len(units) {
				return Sample{}, fmt.Errorf("sampling: point %d not in profiling trace", id)
			}
			i = id
		} else {
			var ok bool
			i, ok = byID[id]
			if !ok {
				return Sample{}, fmt.Errorf("sampling: point %d not in profiling trace", id)
			}
		}
		u := &target.Units[i]
		if !u.CPIValid() {
			return Sample{}, fmt.Errorf("sampling: point %d has no valid CPI on the target trace", id)
		}
		h := ph.Assign[i]
		sums[h] += u.CPI()
		counts[h]++
	}
	out := Sample{Method: "SimProf(design)", UnitIDs: sp.UnitIDs}
	for h := 0; h < ph.K; h++ {
		if counts[h] == 0 {
			continue
		}
		out.EstCPI += sp.Weights[h] * sums[h] / float64(counts[h])
	}
	return out, nil
}
