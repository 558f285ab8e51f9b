package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Sweep telemetry: how long each restart stream of the sweep costs and
// how many sweeps ran. Stream timings use a histogram (not spans)
// because the streams run concurrently on the worker pool.
var (
	obsSweeps = obs.NewCounter("cluster.choosek_sweeps",
		"ChooseK sweeps run")
	obsSweepK = obs.NewCounter("cluster.choosek_ks",
		"k values swept (clustering + silhouette each)")
	obsSweepSeconds = obs.NewHistogram("cluster.choosek_restart_seconds",
		"wall seconds per restart stream (seeding to the largest k + a Lloyd run per k)",
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
	// Workers bounds the concurrency of the whole sweep: the restart
	// streams, the per-k silhouette tasks and the chunked point passes
	// all share this one budget, so a parallel sweep never oversubscribes.
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
	return o
}

// ChooseKDense scores every k in [1, MaxK] with the simplified
// silhouette and returns the smallest k whose score is at least
// Threshold × the best score (the paper's rule). k=1 is the degenerate
// "single phase" answer: it is chosen when the best silhouette over
// k ≥ 2 is below MinScore, i.e. when the units do not separate (e.g.
// grep on Spark, which runs a single filter stage).
//
// The distinct-row table (rows, each point's row, the row norms) is
// built once and shared by every restart stream's seeding and Lloyd
// passes, every silhouette scoring pass and the k = 1 fallback; the
// clusterings stay per row until the chosen one is expanded to the
// points. The clustering fans out over restart streams (sweepRestarts)
// whose results merge order-independently (bestByK), the scoring over
// k into per-k slots, so the sweep is deterministic.
func ChooseKDense(pts *matrix.Dense, opts ChooseKOptions) (KSelection, error) {
	o := opts.withDefaults()
	n := pts.Rows()
	if n == 0 {
		return KSelection{}, fmt.Errorf("cluster: ChooseK with no points")
	}
	maxK := sweepMaxK(n, o.MaxK)
	eng := parallel.New(o.Workers).WithContext(o.Ctx)
	// The four stages get spans here, on the calling goroutine; inside
	// their parallel loops timings go to histograms.
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_, span := obs.StartSpan(ctx, "cluster.table")
	tab := newRowTable(eng, pts)
	span.End()
	if err := eng.Err(); err != nil {
		return KSelection{}, err
	}
	obsSweeps.Inc()
	_, span = obs.StartSpan(ctx, "cluster.sweep")
	best := newBestByK(maxK)
	st := sweepRestarts(eng, tab, maxK, o.KMeans, best.keep)
	span.End()
	if err := eng.Err(); err != nil {
		return KSelection{}, err
	}
	st.record()
	results := best.results
	// k = 1 scores 0 by definition (silhouette undefined).
	_, span = obs.StartSpan(ctx, "cluster.silhouette")
	scores := make([]float64, maxK)
	eng.ForEachIndex(maxK-1, func(i int) {
		k := i + 2
		scores[k-1] = simplifiedSilhouetteDense(eng, tab, results[k].Centers, results[k].Assign)
		obsSweepK.Inc()
	})
	span.End()
	if err := eng.Err(); err != nil {
		return KSelection{}, err
	}
	// Selecting k (with the k = 1 clustering when nothing separates)
	// and expanding the chosen clustering from rows to points.
	_, span = obs.StartSpan(ctx, "cluster.expand")
	defer span.End()
	sel, err := selectK(scores, results, o, func() (Result, error) {
		one, st1, err := kMeansDenseWith(eng, tab, 1, o.KMeans)
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
	if err != nil {
		return KSelection{}, err
	}
	sel.Best.Assign = tab.pointAssign(eng, sel.Best.Assign)
	if err := eng.Err(); err != nil {
		return KSelection{}, err
	}
	return sel, nil
}

// sweepMaxK is the largest k the sweep over n points tries, given the
// requested bound maxK ≥ 1. A bound of 1 is kept: the sweep then tries
// no k ≥ 2 and the selection is the single cluster.
func sweepMaxK(n, maxK int) int {
	// Small populations cannot support many clusters: below ~20 points
	// per cluster the silhouette sweep overfits sampling noise, so a
	// bound of 2 or more is capped at n/20, but never below 2.
	if maxK >= 2 {
		maxK = min(maxK, max(n/20, 2))
	}
	return min(maxK, n)
}

// sweepRestarts runs the sweep's clustering for every k in [2, maxK]
// (maxK ≤ the point count). Restart stream r draws from
// stats.SplitSeed(opts.Seed, r), the stream of kMeansDenseWith's restart
// r, and seeds once, to maxK centers. k-means++ picks centers one at a
// time, so the seeding's first k centers are exactly the seeding of an
// independent k run; as soon as the k-th center is relaxed, the pruned
// Lloyd kernel runs from that prefix and the seeding's handover state.
// keep(k, r, res) receives res, bit-for-bit restart r of
// kMeansDenseWith(k, opts), for maxK relax passes per stream instead of
// Σ_{k=2}^{maxK} k; calls from different streams may run concurrently.
// The stats count what those independent runs would have computed.
func sweepRestarts(eng *parallel.Engine, tab *rowTable,
	maxK int, opts Options, keep func(k, r int, res Result)) distStats {
	o := opts.withDefaults()
	rstats := make([]distStats, o.Restarts)
	eng.ForEachIndex(o.Restarts, func(r int) {
		t := obs.StartTimer()
		rng := stats.NewRNG(stats.SplitSeed(o.Seed, uint64(r)))
		seedPlusPlusDense(tab, maxK, rng, eng, &rstats[r],
			func(k int, seeds *matrix.Dense, hs *seedScratch) {
				// Once canceled, no loop does any work: skip the runs
				// the caller discards anyway.
				if k >= 2 && eng.Err() == nil {
					keep(k, r, lloydFrom(tab, seeds, k, hs, eng, &rstats[r]))
				}
			})
		obsSweepSeconds.ObserveTimer(t)
	})
	return sumStats(rstats)
}

// bestByK keeps, for each k, the lowest-inertia restart delivered so
// far (its Assign per distinct row), a tie going to the lower restart
// index. In any delivery order that is the pick of bestRestart's
// strict-< scan in restart index order, and the losers are dropped at
// once instead of restarts × k clusterings staying live until the sweep
// ends. keep is safe for concurrent use.
type bestByK struct {
	mu      sync.Mutex
	results []Result // results[k]: the pick at k so far
	from    []int    // restart behind results[k]; −1 = none yet
}

func newBestByK(maxK int) *bestByK {
	b := &bestByK{results: make([]Result, maxK+1), from: make([]int, maxK+1)}
	for k := range b.results {
		b.results[k].Inertia, b.from[k] = math.Inf(1), -1
	}
	return b
}

func (b *bestByK) keep(k, r int, res Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cur := b.results[k].Inertia; res.Inertia < cur || res.Inertia == cur && r < b.from[k] {
		b.results[k], b.from[k] = res, r
	}
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
