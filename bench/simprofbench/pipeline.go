package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"simprof/internal/cluster"
	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// confidence is the CI level simprofd reports (99.7%).
const confidence = 0.997

// profileOp is one profile — decode → phase.Form → sampling.SimProf →
// sampling.EstimateOnTrace — with the benchmark's timing of each call.
type profileOp struct {
	Input  int
	Seed   uint64
	Traced bool

	Total, Decode, Form, SimProf, Estimate time.Duration
	// Traced profiles also rerun the two Form stages that have public
	// entry points on the same data, outside the profile's own time:
	// f-regression feature scoring and the ChooseK sweep.
	FRegression, ChooseK time.Duration
	ChooseKSame          bool   // the rerun chose the same K and assignment
	AllocBytes           uint64 // heap bytes allocated by the profile

	Units      int
	K          int
	Silhouette float64
	Est, SE    float64
	Lo, Hi     float64
	EstOnTrace float64
	Alloc      []int
	Err        error
}

// FormSelf is Form minus its f-regression and ChooseK stages: frequency
// adoption, projection and the phase index.
func (p profileOp) FormSelf() time.Duration { return p.Form - p.FRegression - p.ChooseK }

// digestLine renders the profile's outputs for the run digest.
func (p profileOp) digestLine() string {
	return fmt.Sprintf("%d|%d|%d|%g|%g|%g|%g|%g|%g|%v", p.Input, p.Seed, p.K, p.Silhouette,
		p.Est, p.SE, p.Lo, p.Hi, p.EstOnTrace, p.Alloc)
}

// runProfile profiles one input. A traced profile runs with telemetry
// recording and measures its allocations, then reruns f-regression and
// ChooseK untraced and untimed against the profile.
func runProfile(in input, idx int, o phase.Options, n int, seed uint64, traced bool) profileOp {
	op := profileOp{Input: idx, Seed: seed, Traced: traced}
	o.Seed = seed
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
		obs.Enable()
	}
	t0 := time.Now()
	tr, err := trace.DecodeBytes(in.Data)
	t1 := time.Now()
	var ph *phase.Phases
	if err == nil {
		ph, err = phase.Form(tr, o)
	}
	t2 := time.Now()
	var sp sampling.Stratified
	if err == nil {
		sp, err = sampling.SimProf(ph, n, seed)
	}
	t3 := time.Now()
	var est sampling.Sample
	if err == nil {
		est, err = sampling.EstimateOnTrace(ph, sp, tr)
	}
	t4 := time.Now()
	op.Decode, op.Form, op.SimProf, op.Estimate, op.Total = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t4.Sub(t0)
	if traced {
		obs.Disable()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		op.AllocBytes = after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		op.Err = err
		return op
	}
	ci := sp.CI(confidence)
	op.Units, op.K, op.Silhouette = len(tr.Units), ph.K, ph.Silhouette
	op.Est, op.SE, op.Lo, op.Hi = sp.EstCPI, sp.SE, ci.Lo(), ci.Hi()
	op.EstOnTrace, op.Alloc = est.EstCPI, sp.Alloc
	if traced {
		op.FRegression = rerunFRegression(tr, ph, o.Workers)
		op.ChooseK, op.ChooseKSame = rerunChooseK(ph, o)
	}
	return op
}

// cleanUnits lists the units phase formation trains on and their IPC.
func cleanUnits(tr *trace.Trace, ph *phase.Phases) ([]int, []float64) {
	var clean []int
	var ipc []float64
	for i := range tr.Units {
		if !ph.Degraded[i] {
			clean = append(clean, i)
			ipc = append(ipc, tr.Units[i].Counters.IPC())
		}
	}
	return clean, ipc
}

// rerunFRegression times stats.FRegressionSparseWith on the full-method
// frequency matrix Form scored: the decoder-attached one when the trace
// carries it (SPTB), else the sparse vectorization, built untimed.
func rerunFRegression(tr *trace.Trace, ph *phase.Phases, workers int) time.Duration {
	sp := tr.Freq()
	if sp == nil || sp.Rows() != len(tr.Units) || sp.Cols() != len(tr.Methods) {
		fs := &phase.FeatureSpace{Methods: make([]string, len(tr.Methods))}
		for i, m := range tr.Methods {
			fs.Methods[i] = m.FQN()
		}
		sp = fs.VectorizeSparse(tr)
	}
	clean, ipc := cleanUnits(tr, ph)
	eng := parallel.New(workers)
	t := time.Now()
	stats.FRegressionSparseWith(eng, sp, clean, ipc)
	return time.Since(t)
}

// rerunChooseK times cluster.ChooseKDense on the training rows of the
// formed phase vectors with the options Form used, and reports whether
// it chose the same K and assignment.
func rerunChooseK(ph *phase.Phases, o phase.Options) (time.Duration, bool) {
	clean, _ := cleanUnits(ph.Trace, ph)
	rows := make([][]float64, len(clean))
	want := make([]int, len(clean))
	for k, i := range clean {
		rows[k], want[k] = ph.Vectors[i], ph.Assign[i]
	}
	pts := matrix.FromRows(rows)
	t := time.Now()
	sel, err := cluster.ChooseKDense(pts, cluster.ChooseKOptions{
		MaxK:      o.MaxPhases,
		Threshold: o.SilhouetteThreshold,
		KMeans:    cluster.Options{Seed: o.Seed, Restarts: o.Restarts, MaxIter: o.MaxIter},
		Workers:   o.Workers,
	})
	d := time.Since(t)
	return d, err == nil && sel.K == ph.K && slices.Equal(sel.Best.Assign, want)
}
