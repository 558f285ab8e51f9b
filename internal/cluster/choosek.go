package cluster

import (
	"context"
	"fmt"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
)

// Sweep telemetry: how long each k of the silhouette sweep costs and
// how many sweeps ran. Per-k timings use a histogram (not spans)
// because the sweep tasks run concurrently on the worker pool.
var (
	obsSweeps = obs.NewCounter("cluster.choosek_sweeps",
		"ChooseK sweeps run")
	obsSweepK = obs.NewCounter("cluster.choosek_ks",
		"k values swept (clustering + silhouette each)")
	obsSweepSeconds = obs.NewHistogram("cluster.choosek_k_seconds",
		"wall seconds per swept k (k-means restarts + silhouette)",
		0.001, 0.01, 0.1, 1, 10)
)

// KSelection records the outcome of the k sweep used by phase formation.
type KSelection struct {
	K           int       // chosen number of clusters
	Best        Result    // clustering at the chosen k
	Scores      []float64 // silhouette score per k (index 0 ↔ k=1)
	BestScore   float64   // highest silhouette over the sweep
	ChosenScore float64   // silhouette at the chosen k
}

// ChooseKOptions configures ChooseKDense.
type ChooseKOptions struct {
	MaxK      int     // upper bound of the sweep (paper: 20)
	Threshold float64 // fraction of the best score that still qualifies (default 0.93; paper: 0.90)
	MinScore  float64 // below this best score the data has no cluster structure → k=1 (default 0.20)
	KMeans    Options
	// Workers bounds the concurrency of the whole sweep: the per-k
	// tasks, their k-means restarts and the chunked point passes all
	// share this one budget, so a parallel sweep never oversubscribes.
	// 0 selects GOMAXPROCS; 1 reproduces the serial baseline. The
	// selection is bit-for-bit identical for every setting.
	Workers int
	// Ctx, when non-nil, lets a caller abandon the sweep: once it ends,
	// in-flight chunks finish, no new work starts, and ChooseKDense returns
	// the context error. A nil Ctx never cancels.
	Ctx context.Context
}

func (o ChooseKOptions) withDefaults() ChooseKOptions {
	if o.MaxK <= 0 {
		o.MaxK = 20
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.93
	}
	if o.MinScore <= 0 {
		o.MinScore = 0.20
	}
	if o.Workers == 0 {
		o.Workers = o.KMeans.Workers
	}
	return o
}

// ChooseKDense scores every k in [1, MaxK] with the simplified
// silhouette and returns the smallest k whose score is at least
// Threshold × the best score (the paper's rule). k=1 is the degenerate
// "single phase" answer: it is chosen when the best silhouette over
// k ≥ 2 is below MinScore, i.e. when the units do not separate (e.g.
// grep on Spark, which runs a single filter stage).
//
// Point norms are computed once and shared by every k of the sweep,
// every restart's seeding and assignment passes, and every silhouette
// scoring pass. Every k of the sweep is an independent task (its
// k-means seed is pre-derived from the base seed, its result lands in
// its own slot), so the sweep fans out across the worker pool while
// remaining deterministic.
func ChooseKDense(pts *matrix.Dense, opts ChooseKOptions) (KSelection, error) {
	o := opts.withDefaults()
	n := pts.Rows()
	if n == 0 {
		return KSelection{}, fmt.Errorf("cluster: ChooseK with no points")
	}
	maxK := o.MaxK
	// Small populations cannot support many clusters: below ~20 points
	// per cluster the silhouette sweep overfits sampling noise, so the
	// sweep is capped accordingly.
	if kCap := n / 20; maxK > kCap {
		maxK = kCap
	}
	if maxK < 2 {
		maxK = 2
	}
	if maxK > n {
		maxK = n
	}
	eng := parallel.New(o.Workers).WithContext(o.Ctx)
	pn2, pnr := pointNorms(pts)
	// k = 1 scores 0 by definition (silhouette undefined).
	scores := make([]float64, maxK)
	results := make([]Result, maxK+1)
	kstats := make([]distStats, maxK+1)
	obsSweeps.Inc()
	err := eng.ForEachIndexErr(maxK-1, func(i int) error {
		k := i + 2
		t := obs.StartTimer()
		res, st, err := kMeansDenseWith(eng, pts, pn2, pnr, k, sweepOptions(o.KMeans, k))
		if err != nil {
			return err
		}
		results[k] = res
		kstats[k] = st
		scores[k-1] = simplifiedSilhouetteDense(eng, pts, pn2, pnr, res.Centers, res.Assign)
		obsSweepK.Inc()
		obsSweepSeconds.ObserveTimer(t)
		return nil
	})
	if err != nil {
		return KSelection{}, err
	}
	var st distStats
	for _, s := range kstats {
		st.computed += s.computed
		st.equivalent += s.equivalent
	}
	st.record()
	return selectK(scores, results, o, func() (Result, error) {
		one, st1, err := kMeansDenseWith(eng, pts, pn2, pnr, 1, o.KMeans)
		if err != nil {
			return Result{}, err
		}
		if err := eng.Err(); err != nil {
			// Canceled mid-run: the result may cover a partial grid.
			return Result{}, err
		}
		st1.record()
		return one, nil
	})
}

// sweepOptions derives the k-means options of sweep step k: each k runs
// from its own seed, so the steps are independent tasks.
func sweepOptions(base Options, k int) Options {
	base.Seed += uint64(k) * 101
	return base
}

// selectK turns the sweep's per-k outcomes into the KSelection:
// scores[k-1] is the silhouette at k (scores[0] = 0 for k=1) and
// results[k] the clustering at k ≥ 2. one runs the single-cluster
// clustering, needed only when no k reaches MinScore. o must carry its
// defaults.
func selectK(scores []float64, results []Result, o ChooseKOptions,
	one func() (Result, error)) (KSelection, error) {
	sel := KSelection{Scores: scores}
	for _, s := range scores {
		if s > sel.BestScore {
			sel.BestScore = s
		}
	}
	if sel.BestScore < o.MinScore {
		// No cluster structure: one phase covering everything.
		res, err := one()
		if err != nil {
			return KSelection{}, err
		}
		sel.K, sel.Best = 1, res
		return sel, nil
	}
	for k := 2; k <= len(scores); k++ {
		if scores[k-1] >= o.Threshold*sel.BestScore {
			sel.K = k
			sel.Best = results[k]
			sel.ChosenScore = scores[k-1]
			return sel, nil
		}
	}
	// Unreachable: the argmax always satisfies the threshold.
	return sel, fmt.Errorf("cluster: no k satisfied threshold")
}
