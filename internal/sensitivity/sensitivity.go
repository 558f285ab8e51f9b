// Package sensitivity implements the paper's input sensitivity test
// (§III-D): sampling units of each reference input are classified onto
// the training input's phase centers (unit classification), and a phase
// is declared input sensitive if its CPI mean or standard deviation
// under any reference input deviates from the training input by more
// than a threshold (Eq. 6, 10%). Input-insensitive phases can then be
// skipped when simulating further inputs, which is the sample-size
// reduction Fig. 12 reports.
package sensitivity

import (
	"fmt"
	"math"

	"simprof/internal/cluster"
	"simprof/internal/parallel"
	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// DefaultThreshold is the paper's 10%.
const DefaultThreshold = 0.10

// classifyChunk is the fixed per-chunk unit count of Classify.
const classifyChunk = 1024

// Classify assigns every unit of a reference trace to the nearest
// training phase center, vectorizing the reference units in the
// training feature space (FeatureSpace.VectorizeSparse matches methods
// by fully qualified name, so the reference run may intern methods in a
// different order). The center norms are cached once and shared by
// every query. Units classify in fixed chunks on the worker pool: each
// chunk vectorizes its own units (a view of the trace's unit slice) and
// expands each row into its own dense scratch vector, and each unit
// writes only its own slot, so the assignment matches a serial
// nearest-center scan bit-for-bit at every worker count.
func Classify(ph *phase.Phases, ref *trace.Trace) []int {
	set := cluster.NewNearestSet(ph.Centers)
	out := make([]int, len(ref.Units))
	parallel.Default().ForEachChunk(len(out), classifyChunk, func(_, lo, hi int) {
		sp := ph.Space.VectorizeSparse(ref.UnitRange(lo, hi))
		v := make([]float64, sp.Cols())
		for i := range sp.Rows() {
			cols, vals := sp.Row(i)
			for k, j := range cols {
				v[j] = vals[k]
			}
			out[lo+i], _ = set.Nearest(v)
			for _, j := range cols {
				v[j] = 0
			}
		}
	})
	return out
}

// PhaseStats holds the per-phase CPI mean/stddev of one input.
type PhaseStats struct {
	Mean  []float64
	Std   []float64
	Count []int
}

// statsFor summarizes CPI per phase given an assignment. Degraded units
// (lost counters, truncated streams) are classified but contribute no
// observation: comparing a fabricated zero CPI against the training
// distribution would flag phases as sensitive for purely mechanical
// reasons.
func statsFor(k int, tr *trace.Trace, assign []int) PhaseStats {
	ps := PhaseStats{
		Mean:  make([]float64, k),
		Std:   make([]float64, k),
		Count: make([]int, k),
	}
	buckets := make([][]float64, k)
	for i, a := range assign {
		if tr.EffectiveQuality(i).Degraded() || !tr.Units[i].CPIValid() {
			continue
		}
		buckets[a] = append(buckets[a], tr.Units[i].CPI())
	}
	for h, b := range buckets {
		ps.Mean[h] = stats.Mean(b)
		ps.Std[h] = stats.StdDev(b)
		ps.Count[h] = len(b)
	}
	return ps
}

// PhaseSensitive applies Eq. 6 to one phase: the phase passes (is
// sensitive to this reference input) when the relative deviation of the
// mean or of the standard deviation exceeds the threshold. A phase the
// reference input never enters is not evidence of sensitivity.
func PhaseSensitive(train, ref PhaseStats, h int, threshold float64) bool {
	if ref.Count[h] == 0 || train.Count[h] == 0 {
		return false
	}
	if train.Mean[h] != 0 &&
		math.Abs(train.Mean[h]-ref.Mean[h])/train.Mean[h] > threshold {
		return true
	}
	// σ clause. The literal |σ_t-σ_r|/σ_t ratio of Eq. 6 fires on
	// estimator noise whenever σ_t is small relative to the phase mean
	// (with a few dozen units per phase the σ estimate itself wobbles
	// by >10%), so the deviation is measured against the phase's mean
	// CPI instead: the spread must shift by more than threshold×μ_t to
	// count. This keeps the test's intent — "does the shape of the
	// phase's performance distribution change with the input?" — while
	// making it robust at realistic per-phase unit counts.
	if train.Mean[h] == 0 {
		return ref.Std[h] > 0
	}
	return math.Abs(train.Std[h]-ref.Std[h])/train.Mean[h] > threshold
}

// InputResult records one reference input's test outcome.
type InputResult struct {
	Input     string
	Assign    []int // unit classification of the reference trace
	Stats     PhaseStats
	Sensitive []bool // per phase, Eq. 6 outcome against training
}

// Report is the full input-sensitivity analysis of one workload.
type Report struct {
	Train     PhaseStats
	Inputs    []InputResult
	Sensitive []bool // per phase: sensitive to ANY reference input
	Threshold float64
}

// Test runs Algorithm 1: classify each reference input's units into the
// training phases and mark the phases whose performance shifts.
func Test(ph *phase.Phases, refs []*trace.Trace, threshold float64) (*Report, error) {
	if ph.K == 0 {
		return nil, fmt.Errorf("sensitivity: no phases")
	}
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	rep := &Report{
		Train:     statsFor(ph.K, ph.Trace, ph.Assign),
		Sensitive: make([]bool, ph.K),
		Threshold: threshold,
	}
	for _, ref := range refs {
		assign := Classify(ph, ref)
		ir := InputResult{
			Input:     ref.Input,
			Assign:    assign,
			Stats:     statsFor(ph.K, ref, assign),
			Sensitive: make([]bool, ph.K),
		}
		for h := 0; h < ph.K; h++ {
			if PhaseSensitive(rep.Train, ir.Stats, h, threshold) {
				ir.Sensitive[h] = true
				rep.Sensitive[h] = true
			}
		}
		rep.Inputs = append(rep.Inputs, ir)
	}
	return rep, nil
}

// Counts returns (sensitive, insensitive) phase counts — Fig. 13.
func (r *Report) Counts() (sensitive, insensitive int) {
	for _, s := range r.Sensitive {
		if s {
			sensitive++
		} else {
			insensitive++
		}
	}
	return
}

// SensitivePointFraction returns the fraction of the given simulation
// points that fall in input-sensitive phases — the per-reference-input
// sample size of Fig. 12 (points in insensitive phases are skipped).
func (r *Report) SensitivePointFraction(ph *phase.Phases, unitIDs []int) float64 {
	if len(unitIDs) == 0 {
		return 0
	}
	byID := make(map[int]int, len(ph.Trace.Units))
	for i, u := range ph.Trace.Units {
		byID[u.ID] = i
	}
	kept := 0
	for _, id := range unitIDs {
		if i, ok := byID[id]; ok && r.Sensitive[ph.Assign[i]] {
			kept++
		}
	}
	return float64(kept) / float64(len(unitIDs))
}
