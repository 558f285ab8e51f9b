// Package sampling implements the four simulation-point selection
// approaches the paper evaluates (§IV-B): the single contiguous interval
// (SECOND), simple random sampling (SRS), the SimPoint-like single point
// per phase (CODE), and SimProf's stratified random sampling with
// optimal (Neyman) allocation, including the stratified standard error
// and confidence-interval machinery of Eq. 1–5.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"simprof/internal/cluster"
	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// Sample is a set of selected simulation points and the CPI estimate
// they produce.
type Sample struct {
	Method  string
	UnitIDs []int   // selected sampling-unit ids
	EstCPI  float64 // estimated mean CPI of the whole execution
	SE      float64 // standard error of the estimate (0 if not defined)
}

// Size returns the number of simulation points.
func (s Sample) Size() int { return len(s.UnitIDs) }

// Err returns the relative error of the estimate against the trace's
// oracle CPI (the paper's accuracy metric).
func (s Sample) Err(tr *trace.Trace) float64 {
	return stats.RelErr(s.EstCPI, tr.OracleCPI())
}

// CI returns the confidence interval of the estimate at the given level
// (Eq. 2–3): EstCPI ± z·SE, its margin floored at roundingMargin. Where
// the method defines no SE, only that floor remains.
func (s Sample) CI(level float64) stats.Interval {
	ci := stats.ConfidenceInterval(s.EstCPI, s.SE, level)
	ci.Margin = math.Max(ci.Margin, roundingMargin(len(s.UnitIDs), s.EstCPI))
	return ci
}

// roundingMargin bounds how far an estimate from n sampled CPIs can sit
// from the population mean by float rounding alone. It matters in a
// census: every unit is drawn, so the stratified estimate is the
// population mean μ in exact arithmetic and its SE is 0, and a
// zero-width interval misses the oracle (trace.OracleCPI, the same n
// values summed in unit order) whenever the two sums round apart.
//
// With u = 2⁻⁵³ and γ_m = m·u/(1−m·u), adding m values in any order
// errs by at most γ_{m−1}·Σ|y|, and each multiply or divide adds one
// factor (1+δ), |δ| ≤ u (Higham, Accuracy and Stability of Numerical
// Algorithms, §3). Let A = Σ|y|/n.
//   - The oracle fl(fl(Σ y)/n) is within γ_n·A of μ.
//   - The stratified estimate Σ_h fl(fl(N_h/N)·fl(fl(Σ_{y∈h} y)/N_h))
//     has per-stratum terms within a factor (1+θ), |θ| ≤ γ_{N_h+2}, of
//     their exact values, and adding the K ≤ n terms multiplies in
//     γ_{K−1} more: it is within γ_{2n+1}·A of μ.
//
// So |est − oracle| ≤ (γ_n + γ_{2n+1})·A ≤ γ_{3n+1}·A. CPIs are
// positive, so A = μ ≤ |est|/(1−γ_{2n+1}) ≤ 2·|est|. Forming est ∓ margin
// rounds by at most u·|est| more, so 2·γ_{3n+2}·|est| covers all of it.
// That is about 6n ulps of the estimate, far below the z·SE of any
// sample with spread, whose interval it leaves bit-identical.
func roundingMargin(n int, est float64) float64 {
	const u = 0x1p-53
	m := float64(3*n+2) * u
	return 2 * m / (1 - m) * math.Abs(est)
}

// ---------------------------------------------------------------------
// SECOND: one contiguous N-second interval
// ---------------------------------------------------------------------

// SecondConfig configures the SECOND baseline. The machine clock runs at
// ClockHz; the approach simulates all sampling units whose start cycle
// falls within a window of Seconds, beginning at StartFraction of the
// total execution.
type SecondConfig struct {
	Seconds       float64
	ClockHz       float64
	StartFraction float64 // 0 = beginning; the paper's practice is mid-run
}

// DefaultSecond is the paper's 10-second interval on a 3GHz-class
// machine, scaled 1:20 so that the window covers a realistic fraction of
// the scaled-down executions (the relative comparison with SimProf's
// sample sizes is what matters).
func DefaultSecond() SecondConfig {
	return SecondConfig{Seconds: 10, ClockHz: 450e6, StartFraction: 0.1}
}

// WindowCycles returns the interval length in cycles.
func (c SecondConfig) WindowCycles() uint64 {
	return uint64(c.Seconds * c.ClockHz)
}

// Second selects the contiguous interval and estimates CPI as the mean
// over the units inside it. Units whose counters were lost (no valid
// CPI) are skipped rather than averaged in as zeros.
func Second(tr *trace.Trace, cfg SecondConfig) (Sample, error) {
	if len(tr.Units) == 0 {
		return Sample{}, fmt.Errorf("sampling: empty trace")
	}
	order := make([]int, 0, len(tr.Units))
	for i := range tr.Units {
		if tr.Units[i].CPIValid() {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return Sample{}, fmt.Errorf("sampling: no units with valid counters")
	}
	sort.Slice(order, func(a, b int) bool {
		return tr.Units[order[a]].StartCycle < tr.Units[order[b]].StartCycle
	})
	first := tr.Units[order[0]].StartCycle
	last := tr.Units[order[len(order)-1]].StartCycle
	span := last - first
	t0 := first + uint64(cfg.StartFraction*float64(span))
	t1 := t0 + cfg.WindowCycles()
	s := Sample{Method: "SECOND"}
	var sum float64
	for _, i := range order {
		sc := tr.Units[i].StartCycle
		if sc < t0 || sc >= t1 {
			continue
		}
		s.UnitIDs = append(s.UnitIDs, tr.Units[i].ID)
		sum += tr.Units[i].CPI()
	}
	if len(s.UnitIDs) == 0 {
		// Window fell past the end; take the last measurable unit.
		i := order[len(order)-1]
		s.UnitIDs = []int{tr.Units[i].ID}
		sum = tr.Units[i].CPI()
	}
	s.EstCPI = sum / float64(len(s.UnitIDs))
	return s, nil
}

// ---------------------------------------------------------------------
// SRS: simple random sampling
// ---------------------------------------------------------------------

// SRS selects n units uniformly without replacement from the units with
// valid counters. The SE includes the finite-population correction.
func SRS(tr *trace.Trace, n int, seed uint64) (Sample, error) {
	if len(tr.Units) == 0 {
		return Sample{}, fmt.Errorf("sampling: empty trace")
	}
	frame := make([]int, 0, len(tr.Units))
	for i := range tr.Units {
		if tr.Units[i].CPIValid() {
			frame = append(frame, i)
		}
	}
	N := len(frame)
	if N == 0 {
		return Sample{}, fmt.Errorf("sampling: no units with valid counters")
	}
	if n <= 0 {
		return Sample{}, fmt.Errorf("sampling: n=%d must be positive", n)
	}
	if n > N {
		n = N
	}
	rng := stats.NewRNG(seed)
	idx := stats.SampleWithoutReplacement(rng, N, n)
	s := Sample{Method: "SRS"}
	cpis := make([]float64, 0, n)
	for _, j := range idx {
		i := frame[j]
		s.UnitIDs = append(s.UnitIDs, tr.Units[i].ID)
		cpis = append(cpis, tr.Units[i].CPI())
	}
	s.EstCPI = stats.Mean(cpis)
	if n > 1 {
		fpc := 1 - float64(n)/float64(N)
		s.SE = math.Sqrt(stats.Variance(cpis) / float64(n) * fpc)
	}
	return s, nil
}

// ---------------------------------------------------------------------
// CODE: one simulation point per phase (SimPoint-like)
// ---------------------------------------------------------------------

// Code picks, for each phase, the unit whose feature vector is nearest
// the cluster center, and estimates CPI as the phase-weighted mean of
// those points — exactly SimPoint's strategy applied to call-stack
// phases. Call-stack vectors tie far more often than SimPoint's basic
// block vectors (every quicksort unit has an identical stack), so ties
// are broken by a deterministic pseudo-random draw rather than scan
// order, which would systematically favour the earliest unit of a phase.
func Code(ph *phase.Phases) (Sample, error) {
	if ph.K == 0 {
		return Sample{}, fmt.Errorf("sampling: no phases")
	}
	s := Sample{Method: "CODE"}
	weights := ph.Weights()
	rng := stats.NewRNG(uint64(len(ph.Assign))*0x9e3779b9 + uint64(ph.K))
	const tieTol = 1e-9
	skipped := false
	var covered float64
	for h := 0; h < ph.K; h++ {
		var ties []int
		bestD := math.Inf(1)
		for i, a := range ph.Assign {
			if a != h || !ph.UnitMeasured(i) {
				continue
			}
			d := cluster.SqDist(ph.Vectors[i], ph.Centers[h])
			switch {
			case d < bestD-tieTol:
				bestD = d
				ties = ties[:0]
				ties = append(ties, i)
			case d <= bestD+tieTol:
				ties = append(ties, i)
			}
		}
		if len(ties) == 0 {
			// Empty phase, or one with no measurable representative.
			if weights[h] > 0 {
				skipped = true
			}
			continue
		}
		best := ties[rng.IntN(len(ties))]
		s.UnitIDs = append(s.UnitIDs, ph.Trace.Units[best].ID)
		s.EstCPI += weights[h] * ph.Trace.Units[best].CPI()
		covered += weights[h]
	}
	if len(s.UnitIDs) == 0 {
		return Sample{}, fmt.Errorf("sampling: no phase has a measurable representative")
	}
	// If a phase had to be skipped, renormalize over the covered weight
	// so the estimate is a proper mean, not one missing a phase's share.
	// Fully-covered runs keep the exact original arithmetic.
	if skipped && covered > 0 {
		s.EstCPI /= covered
	}
	return s, nil
}
