// Package cluster implements the clustering layer of SimProf's phase
// formation: k-means as k-means++ seeding plus one Lloyd update (the
// centroids of the seeding's clusters, then one assignment pass; a
// departure from the paper, DESIGN.md §12), centroid-based (simplified)
// silhouette scoring, and the paper's k-selection rule: the smallest
// k ∈ [1, 20] whose silhouette is at least a fraction of the best. The
// paper's fraction is 90%; ChooseKOptions.Threshold defaults to 93%,
// because the simplified silhouette scores saturate on coarse splits,
// and 93% recovers the phase granularity the paper reports.
//
// The production kernels run on flat matrix.Dense inputs with a
// Hamerly-style bound-pruned assignment pass: per-row lower bounds on
// the second-closest center, handed over by the seeding and decayed by
// the update's per-center drift, skip most SqDist calls, and the scans
// that remain visit only the compare-means survivors, a prefix of a
// sorted per-center list, four distances at a time. Every distance that
// is computed is SqDist's, bit for bit, the scan keeps the naive scan's
// lowest-index argmin, and every pruning test carries a float-safety
// margin that only ever forces extra work, so results are bit-for-bit
// identical to the naive reference kernel the equivalence tests run
// against (oracle_test.go; see DESIGN.md §12). Everything that is a pure
// function of one point's vector — distances, assignments, bounds, D²
// weights, silhouette terms — is computed once per distinct row of the
// input (rows.go), while every sum over points still adds the points in
// order, so the memoization cannot move a bit either.
//
// Every kernel runs on the shared internal/parallel engine. Results are
// bit-for-bit identical for any worker count: point loops run over a
// fixed chunk grid with per-chunk partial sums merged in chunk index
// order, restarts draw from pre-derived PCG seeds and are compared in
// restart index order, and each restart stream of the k sweep writes
// its outcome at every k into its own slot.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// Clustering telemetry: restarts run, empty clusters re-seeded, and how
// much work the bound-pruned kernel avoided. Recorded only while obs is
// enabled.
var (
	obsRestarts = obs.NewCounter("cluster.restarts",
		"independent k-means restarts run")
	obsEmptyReseeds = obs.NewCounter("cluster.empty_reseeds",
		"empty clusters re-seeded at the farthest point")
	obsDistComputed = obs.NewCounter("cluster.distances_computed",
		"point–center distance evaluations executed by the pruned kernel")
	obsDistPruned = obs.NewCounter("cluster.distances_pruned",
		"distance evaluations skipped by Hamerly bounds, compare-means and cached-norm tests and distinct-row reuse")
)

// pointChunk is the fixed chunk size for loops over points. It is part
// of the determinism contract: the chunk grid (and therefore the order
// of floating-point merges) depends on it and on the input size only,
// never on the worker count.
const pointChunk = 256

// cacheLineWords is a 64-byte cache line in 8-byte words.
const cacheLineWords = 8

// Float-safety margins of the pruning tests. Both are relative slacks
// around 1e-9 — five orders of magnitude above the ~1e-14 relative error
// a chunk-length dot product or a triangle-inequality subtraction can
// accumulate — so a pruning test can only ever fail toward computing the
// distance, never toward skipping one that could win. Bit-for-bit
// equivalence with the naive kernel rests on these being conservative,
// not on them being tight.
const (
	// boundSlack shrinks the second-closest lower bound every time it is
	// set or decayed by center drift.
	boundSlack = 1e-9
	// normSlack pads the cached-norm test (‖p‖−‖c‖)² > current-best
	// (the seeding's relax pass, NearestSet) before a candidate center is
	// skipped.
	normSlack = 1e-9
	// elkanGuard/elkanSlack are the margins of the silhouette's
	// triangle-inequality stop d(p,c) ≥ d(b,c) − d(p,b): the gap g must
	// exceed elkanGuard × the magnitudes entering the subtraction (so
	// cancellation cannot have eaten it), and g² must clear the squared
	// threshold by a relative elkanSlack. Both sit orders of magnitude
	// above the ~1e-14 relative error of the distances involved.
	elkanGuard = 1e-7
	elkanSlack = 1e-6
)

// scanSkipMinDim gates the seeding relax pass's cached-norm test. The
// test costs a handful of flops; below this dimensionality a SqDist is
// about as cheap, so it is pure overhead and the pass runs lean. The
// gate depends only on the input dimensionality — never on workers or
// telemetry — and skipping less is always valid, so results are
// unchanged either way.
const scanSkipMinDim = 6

// Result is the outcome of one k-means run.
type Result struct {
	K       int
	Centers [][]float64 // K × D centroids
	Assign  []int       // per-point cluster index (per distinct row inside the sweep)
	Sizes   []int       // points per cluster
	Inertia float64     // Σ squared distance to assigned center
}

// Options controls one k-means run.
type Options struct {
	// Deprecated: ignored. Every restart runs one Lloyd update from its
	// k-means++ seeding (DESIGN.md §12); the field stays only while the
	// benchmark module still sets it, and goes with ROADMAP item 5a.
	MaxIter  int
	Restarts int    // independent restarts, best inertia wins (default 4)
	Seed     uint64 // RNG seed (deterministic)
}

func (o Options) withDefaults() Options {
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	return o
}

// SqDist returns the squared Euclidean distance between two vectors.
func SqDist(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination for the loop below
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance between two vectors.
func Dist(a, b []float64) float64 { return math.Sqrt(SqDist(a, b)) }

// sqDist4 returns SqDist(p, c0), …, SqDist(p, c3) bit for bit: four
// accumulators, each adding its squared differences in SqDist's element
// order, so the four add chains overlap instead of each waiting on its
// own previous add. Each c must be at least as long as p.
func sqDist4(p, c0, c1, c2, c3 []float64) (s0, s1, s2, s3 float64) {
	c0, c1, c2, c3 = c0[:len(p)], c1[:len(p)], c2[:len(p)], c3[:len(p)]
	for i, v := range p {
		d0 := v - c0[i]
		d1 := v - c1[i]
		d2 := v - c2[i]
		d3 := v - c3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// nearer is one step of a lowest-index argmin: candidate cc at squared
// distance v replaces (best, bestD) when it is closer, or as close with
// a lower index. Over any visiting order the result is the answer of a
// strict-< scan in index order.
func nearer(best int, bestD float64, cc int, v float64) (int, float64) {
	if v < bestD || v == bestD && cc < best {
		return cc, v
	}
	return best, bestD
}

// sortNear sorts the center ids in list ascending by key[id], stably, so
// equal keys keep their order.
func sortNear(list []int32, key []float64) {
	slices.SortStableFunc(list, func(x, y int32) int { return cmp.Compare(key[x], key[y]) })
}

// distStats counts the distance evaluations of one pruned run: computed
// is the number of SqDist calls actually executed, equivalent is what
// the naive kernel would have executed for the same passes. The
// difference is the pruned count reported to telemetry.
type distStats struct {
	computed   int64
	equivalent int64
}

// sumStats adds up the counts of independent runs.
func sumStats(runs []distStats) distStats {
	var st distStats
	for _, s := range runs {
		st.computed += s.computed
		st.equivalent += s.equivalent
	}
	return st
}

func (s distStats) record() {
	if s.equivalent == 0 {
		return
	}
	obsDistComputed.Add(s.computed)
	obsDistPruned.Add(s.equivalent - s.computed)
}

// kMeansDenseWith clusters the points of tab into k clusters (k larger
// than the point count is clamped to it) with k-means++ seeding and the
// bound-pruned Lloyd kernel, keeping the lowest-inertia restart. The
// result's Assign is per distinct row (tab.pointAssign expands it). It
// runs on a caller-supplied engine and distinct-row table, so that a
// caller (the ChooseK sweep's k = 1 fallback) shares one concurrency
// budget — and one table — with the restarts and Lloyd passes it
// spawns. Restart r draws from stats.SplitSeed(opts.Seed, r); the k
// sweep's restart stream r reproduces it at every k.
func kMeansDenseWith(eng *parallel.Engine, tab *rowTable, k int, opts Options) (Result, distStats, error) {
	n := tab.points()
	if n == 0 {
		return Result{}, distStats{}, fmt.Errorf("cluster: no points")
	}
	if k <= 0 {
		return Result{}, distStats{}, fmt.Errorf("cluster: k=%d must be positive", k)
	}
	if k > n {
		k = n
	}
	o := opts.withDefaults()

	// Each restart derives its own PCG seed up front, runs independently
	// and lands in its own slot.
	results := make([]Result, o.Restarts)
	rstats := make([]distStats, o.Restarts)
	eng.ForEachIndex(o.Restarts, func(r int) {
		rng := stats.NewRNG(stats.SplitSeed(o.Seed, uint64(r)))
		results[r] = lloydPruned(tab, k, rng, eng, &rstats[r])
	})
	return bestRestart(results), sumStats(rstats), nil
}

// bestRestart picks the lowest-inertia run by scanning the restarts in
// index order (strict <, so ties keep the lowest index — exactly the
// serial semantics).
func bestRestart(results []Result) Result {
	best := Result{Inertia: math.Inf(1)}
	for _, res := range results {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// lloydScratch holds the per-chunk accumulators and per-row state of
// one Lloyd run. Runs borrow it from a pool (getScratch/putScratch), so
// the restarts × k runs of the sweep reuse a handful of buffers instead
// of reallocating per run.
type lloydScratch struct {
	chunks   int         // point chunks
	sizes    [][]int     // point chunk → cluster → count
	sums     [][]float64 // point chunk → k*d flattened partial centroid sums
	sizeBuf  []int       // backing array of sizes
	sumBuf   []float64   // backing array of sums
	inertia  []float64   // point chunk → partial inertia
	computed []int64     // row chunk → SqDist calls executed (pruned kernel)
	dist2    []float64   // row → squared dist to assigned center
	qcc      []float64   // k×k squared half inter-center distances (compare-means)
	reps     []int32     // distinct-center representatives (class roots), in index order
	near     []int32     // center a → row a·k: the other representatives, ascending by qcc
	nearN    []int32     // center a → length of its near-list
}

// ensure (re)sizes the scratch for n points in u distinct rows with k
// clusters in d dims, reusing existing capacity. Every entry is written
// before it is read.
func (s *lloydScratch) ensure(n, u, k, d int) {
	chunks := parallel.Chunks(n, pointChunk)
	s.chunks = chunks
	s.inertia = resize(s.inertia, chunks)
	s.computed = resize(s.computed, parallel.Chunks(u, pointChunk))
	// The chunks of one pass run on different workers and bump their
	// sizes and sums point by point, so each chunk's slice is followed
	// by a cache line of padding: no two chunks ever write one line.
	sizeStride, sumStride := k+cacheLineWords, k*d+cacheLineWords
	s.sizeBuf = resize(s.sizeBuf, chunks*sizeStride)
	s.sumBuf = resize(s.sumBuf, chunks*sumStride)
	s.sizes = resize(s.sizes, chunks)
	s.sums = resize(s.sums, chunks)
	for c := 0; c < chunks; c++ {
		s.sizes[c] = s.sizeBuf[c*sizeStride : c*sizeStride+k]
		s.sums[c] = s.sumBuf[c*sumStride : c*sumStride+k*d]
	}
	s.dist2 = resize(s.dist2, u)
	s.reps = resize(s.reps, k)
	s.qcc = resize(s.qcc, k*k)
	s.near = resize(s.near, k*k)
	s.nearN = resize(s.nearN, k)
}

// seedScratch holds the state of one k-means++ seeding: the per-row D²
// weights and their point-chunk partial sums, and the per-row handover
// (seedArg, d2, sq2) a Lloyd run starts from.
type seedScratch struct {
	chunks   int       // point chunks
	partial  []float64 // point chunk → D² partial sums
	computed []int64   // row chunk → SqDist calls executed
	d2       []float64 // row → D² weight
	seedArg  []int32   // row → chosen center achieving d2
	sq2      []float64 // row → squared lower bound on 2nd-nearest chosen center
	touched  []int32   // center → epoch of last sq2 touch-up
	dPrev    []float64 // center → dist from it to the newest center
	qSkip    []float64 // center → squared fast-skip threshold
	qB       []float64 // center → sq2 bound when fast-skipped
}

// ensure (re)sizes the scratch for n points in u distinct rows and k
// centers, reusing existing capacity.
func (s *seedScratch) ensure(n, u, k int) {
	chunks := parallel.Chunks(n, pointChunk)
	s.chunks = chunks
	s.partial = resize(s.partial, chunks)
	s.computed = resize(s.computed, parallel.Chunks(u, pointChunk))
	s.d2 = resize(s.d2, u)
	s.seedArg = resize(s.seedArg, u)
	s.sq2 = resize(s.sq2, u)
	s.touched = resize(s.touched, k)
	s.dPrev = resize(s.dPrev, k)
	s.qSkip = resize(s.qSkip, k)
	s.qB = resize(s.qB, k)
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var (
	scratchPool     = sync.Pool{New: func() any { return new(lloydScratch) }}
	seedScratchPool = sync.Pool{New: func() any { return new(seedScratch) }}
)

func getScratch(n, u, k, d int) *lloydScratch {
	s := scratchPool.Get().(*lloydScratch)
	s.ensure(n, u, k, d)
	return s
}

func putScratch(s *lloydScratch) { scratchPool.Put(s) }

// lloydPruned is one restart of kMeansDenseWith: the k-means++ seeding
// of k centers, then the pruned Lloyd kernel from its handover.
func lloydPruned(tab *rowTable, k int, rng *rand.Rand,
	eng *parallel.Engine, st *distStats) Result {
	var res Result
	seedPlusPlusDense(tab, k, rng, eng, st, func(m int, seeds *matrix.Dense, sc *seedScratch) {
		if m == k {
			res = lloydFrom(tab, seeds, k, sc, eng, st)
		}
	})
	return res
}

// lloydFrom is the production k-means kernel on the distinct-row table:
// one Lloyd update from a k-means++ seeding, then one assignment pass
// against the updated centers. It starts from the first k rows of seeds
// and the seeding's handover in hs, as left by relaxing the k-th
// center; it only reads them, so the seeding can go on to pick more
// centers afterwards.
//
// The handover holds each row's nearest seeded center (seedArg, with the
// plain scan's lowest-index tie-breaking), the squared distance to it
// (d2) and a squared lower bound on the distance to the second-nearest
// (sq2). The update step reads seedArg directly: sizes and centroid sums
// add up over the points in order, reading each point's row through
// rowOf, and the per-chunk partials merge in chunk index order, so every
// float sum has the naive kernel's addends in the naive kernel's order,
// for zero distance computations. An empty cluster is re-seeded at the
// first point farthest from its seeded center, read from d2.
//
// The assignment pass computes, per distinct row, the one distance to
// the row's seeded center. When it is strictly below the handover bound
// decayed by the update's per-center drift (triangle inequality, with
// boundSlack margins absorbing float rounding) — tested in the squared
// domain, paying a sqrt only for rows the cheap prefilter deems
// plausibly prunable — the other k−1 distances are skipped: the row
// provably keeps its center, and strictness means the naive scan would
// have kept the same index even under ties. Otherwise the row scans
// the candidates the compare-means test leaves (d2a < (d(a,cc)/2)²
// proves cc strictly farther than the seeded center): a prefix of a's
// near-list, sorted by that threshold, so the scan stops at the first
// entry above d2a. It computes their distances four at a time with
// sqDist4 and keeps the lowest-index argmin over them and a, which is
// the plain nearest-center scan's answer. Sizes and inertia then add up
// over the points in order. The returned Assign is per row. See
// DESIGN.md §12 for the equivalence argument.
func lloydFrom(tab *rowTable, seeds *matrix.Dense, k int,
	hs *seedScratch, eng *parallel.Engine, st *distStats) Result {
	n, u, d := tab.points(), tab.distinct(), tab.rows.Cols()
	// The naive kernel seeds each run on its own, relaxing its first
	// max(k−1, 1) centers at n SqDist calls each, then assigns every
	// point twice at n·k calls each: to the seeds (the handover here),
	// then to the updated centers. Whatever the shared seeding and the
	// pass below actually compute goes into st.computed.
	st.equivalent += int64(n) * int64(max(k-1, 1)+2*k)
	sc := getScratch(n, u, k, d)
	defer putScratch(sc)
	rowOf, rdata := tab.rowOf, tab.rows.Data()
	seedArg, seedD2, seedSq2 := hs.seedArg, hs.d2, hs.sq2

	// Update step: the seeded clusters' sizes and centroid partial sums
	// per point chunk, merged in chunk index order, then normalized —
	// identical arithmetic to the naive kernel.
	eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
		szs, sums := sc.sizes[c], sc.sums[c]
		clear(szs)
		clear(sums)
		for _, r := range rowOf[lo:hi] {
			ci := int(seedArg[r])
			szs[ci]++
			p := rdata[int(r)*d : int(r)*d+d]
			row := sums[ci*d:][:len(p)] // one length for both: no bounds checks
			for j, v := range p {
				row[j] += v
			}
		}
	})
	centers := matrix.NewDense(k, d)
	cdata := centers.Data()
	sizes := make([]int, k)
	for c := 0; c < sc.chunks; c++ {
		for i, s := range sc.sizes[c] {
			sizes[i] += s
		}
		for j, v := range sc.sums[c] {
			cdata[j] += v
		}
	}
	for c := 0; c < k; c++ {
		row := centers.Row(c)
		if sizes[c] == 0 {
			obsEmptyReseeds.Inc()
			// Re-seed an empty cluster at the point farthest from its
			// seeded center. seedD2 holds exactly the n SqDist calls the
			// naive kernel recomputes here, so they count as pruned.
			// Rows are in first-occurrence order, so the first farthest
			// row holds the first farthest point.
			far, farD := 0, -1.0
			for r, dd := range seedD2 {
				if dd > farD {
					far, farD = r, dd
				}
			}
			copy(row, tab.rows.Row(far))
			st.equivalent += int64(n)
			continue
		}
		inv := 1 / float64(sizes[c])
		for j := range row {
			row[j] *= inv
		}
	}

	// Per-center drift of the update, which decays the handover's
	// second-nearest bounds. driftArg is the center that moved farthest;
	// rows seeded to it decay by the second-largest drift instead (their
	// own center's motion cannot bring other centers closer).
	driftMax, driftSecond, driftArg := 0.0, 0.0, -1
	for c := 0; c < k; c++ {
		dd := Dist(seeds.Row(c), centers.Row(c))
		if dd > driftMax {
			driftSecond = driftMax
			driftMax, driftArg = dd, c
		} else if dd > driftSecond {
			driftSecond = dd
		}
	}

	// Compare-means geometry: qcc[a·k+cc] = (d(a,cc)/2)² (with margin,
	// sqrt-free — it is a quarter of the squared distance). A row seeded
	// to a whose d2a < qcc[a·k+cc] is strictly closer to a than to cc.
	qcc, reps := sc.qcc, sc.reps
	for a := 0; a < k; a++ {
		qcc[a*k+a] = 0
		ra := cdata[a*d : a*d+d]
		for b := a + 1; b < k; b++ {
			q := SqDist(ra, cdata[b*d:b*d+d]) * 0.25 * (1 - 1e-7)
			qcc[a*k+b] = q
			qcc[b*k+a] = q
		}
	}
	// Duplicate centers (exactly equal coordinate vectors — frequent when
	// k exceeds the number of distinct behaviours) yield bit-identical
	// SqDist results, so the scan visits only one representative per
	// identity class: the class root (lowest index), which under the
	// lowest-index tie rule is exactly the index the naive scan would
	// keep. SqDist(a,b) == 0 iff every coordinate is numerically equal.
	nreps := 0
	for b := 0; b < k; b++ {
		root := true
		for a := 0; a < b && root; a++ {
			root = qcc[a*k+b] != 0
		}
		if root {
			reps[nreps] = int32(b)
			nreps++
		}
	}
	// Near-lists: for each center a, the representatives other than a in
	// ascending qcc[a·k+cc] order (stable, so ties stay in index order).
	// A row seeded to a then has as its compare-means survivors exactly
	// the prefix with qcc ≤ d2a. O(k² log k).
	near, nearN := sc.near, sc.nearN
	for a := 0; a < k; a++ {
		list := near[a*k : a*k : a*k+k]
		for _, cc := range reps[:nreps] {
			if int(cc) != a {
				list = append(list, cc)
			}
		}
		sortNear(list, qcc[a*k:a*k+k])
		nearN[a] = int32(len(list))
	}

	// The assignment pass, one distinct row at a time.
	assign := make([]int, u)
	dist2 := sc.dist2
	eng.ForEachChunk(u, pointChunk, func(c, lo, hi int) {
		var comp int64
		for r := lo; r < hi; r++ {
			p := rdata[r*d : r*d+d]
			a := int(seedArg[r])
			d2a := SqDist(p, cdata[a*d:a*d+d])
			comp++
			// Prune prefilter in the squared domain: drift decay only
			// shrinks the bound, so d2a ≥ bq already rules the prune out
			// without a sqrt. Only plausible candidates pay the sqrt for
			// the exact drift-decayed test.
			if bq := seedSq2[r] * ((1 - boundSlack) * (1 - boundSlack)); bq > 0 && d2a < bq {
				delta := driftMax
				if a == driftArg {
					delta = driftSecond
				}
				bv := (math.Sqrt(bq)-delta)*(1-boundSlack) - delta*boundSlack
				if bv > 0 && d2a < bv*bv*(1-boundSlack) {
					// The seeded center is strictly closer than any
					// other can be: the row keeps it, scan skipped.
					assign[r], dist2[r] = a, d2a
					continue
				}
			}
			// The scan: the near-list prefix that survives compare-means,
			// four distances at a time. The lowest-index argmin over it
			// and a is the naive scan's answer, whatever the visit order.
			qrow, m := qcc[a*k:a*k+k], 0
			for _, cc := range near[a*k : a*k+int(nearN[a])] {
				if qrow[cc] > d2a {
					break
				}
				m++
			}
			cand := near[a*k : a*k+m]
			comp += int64(m)
			best, bestD := a, d2a
			i := 0
			for ; i+4 <= m; i += 4 {
				c0, c1, c2, c3 := int(cand[i]), int(cand[i+1]), int(cand[i+2]), int(cand[i+3])
				v0, v1, v2, v3 := sqDist4(p, cdata[c0*d:c0*d+d], cdata[c1*d:c1*d+d],
					cdata[c2*d:c2*d+d], cdata[c3*d:c3*d+d])
				best, bestD = nearer(best, bestD, c0, v0)
				best, bestD = nearer(best, bestD, c1, v1)
				best, bestD = nearer(best, bestD, c2, v2)
				best, bestD = nearer(best, bestD, c3, v3)
			}
			for ; i < m; i++ {
				cc := int(cand[i])
				best, bestD = nearer(best, bestD, cc, SqDist(p, cdata[cc*d:cc*d+d]))
			}
			assign[r], dist2[r] = best, bestD
		}
		sc.computed[c] = comp
	})
	for _, comp := range sc.computed {
		st.computed += comp
	}

	// Sizes and inertia of the assignment, over the points in order.
	eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
		szs := sc.sizes[c]
		clear(szs)
		var inertia float64
		for _, r := range rowOf[lo:hi] {
			szs[assign[r]]++
			inertia += dist2[r]
		}
		sc.inertia[c] = inertia
	})
	clear(sizes)
	var inertia float64
	for c := 0; c < sc.chunks; c++ {
		for i, s := range sc.sizes[c] {
			sizes[i] += s
		}
		inertia += sc.inertia[c]
	}
	obsRestarts.Inc()
	return Result{K: k, Centers: centers.RowViews(), Assign: assign, Sizes: sizes, Inertia: inertia}
}

// seedPlusPlusDense is the production k-means++ seeding on the
// distinct-row table. Same draw sequence as the naive kernel's plain
// seeding — the RNG consumption and the picked points are bit-identical
// — but the relax pass runs once per distinct row and skips rows whose
// cached-norm bound proves the new center cannot lower their D² weight,
// and each draw resolves through the chunk partial sums instead of a
// full O(n) scan. The weights of a draw are the points' (each point
// reads its row's weight), summed over the points in order.
//
// k-means++ picks its centers one at a time, so the first m centers of
// a k-center seeding are exactly an m-center seeding from the same RNG
// stream. After relaxing the m-th center, seedPlusPlusDense calls
// prefix(m, centers, sc): rows [0, m) of centers and the handover state
// in sc are then those of an m-center seeding, for the callee to read
// but not modify. It returns all k centers.
func seedPlusPlusDense(tab *rowTable, k int, rng *rand.Rand,
	eng *parallel.Engine, st *distStats, prefix func(m int, centers *matrix.Dense, sc *seedScratch)) *matrix.Dense {
	n, u, d := tab.points(), tab.distinct(), tab.rows.Cols()
	sc := seedScratchPool.Get().(*seedScratch)
	defer seedScratchPool.Put(sc)
	sc.ensure(n, u, k)
	centers := matrix.NewDense(k, d)
	rowOf, rdata, pn2, pnr := tab.rowOf, tab.rows.Data(), tab.pn2, tab.pnr
	first := rng.IntN(n)
	copy(centers.Row(0), tab.rows.Row(int(rowOf[first])))
	d2, partial := sc.d2, sc.partial
	seedArg, sq2 := sc.seedArg, sc.sq2
	useNorm := d >= scanSkipMinDim
	// Touch-up dedup: a duplicate pick's sq2 touch-up (below) is
	// idempotent while d2 and seedArg are unchanged, i.e. until the next
	// full relax pass. touched[j] records the epoch of the last touch-up
	// against chosen center j, so repeated duplicate picks of the same
	// value — the common case once k exceeds the number of distinct
	// rows — cost O(1) instead of O(U).
	touched := sc.touched
	for j := range touched {
		touched[j] = -1
	}
	epoch := int32(0)
	// relax folds chosen center m into the D² weights. Two exact skips
	// avoid most SqDist calls. The main one is a per-class threshold in
	// the squared domain: a row whose weight is achieved by chosen
	// center a has √d2[r] exactly its distance to a, so the triangle
	// inequality d(p,cₘ) ≥ d(cₐ,cₘ) − d(p,cₐ) proves the new center
	// cannot lower the weight whenever d(p,cₐ) < d(cₐ,cₘ)/2 — i.e.
	// whenever d2[r] < qSkip[a], one comparison against a threshold
	// precomputed per (a, m) pair with a 1e-7 relative margin. The
	// second is the cached-norm bound (‖p‖−‖cₘ‖)², kept only at
	// dimensionalities where it beats just computing the distance. Both
	// only ever skip when the new center provably cannot lower d2[r],
	// so the weight vector — and therefore the draw sequence — is
	// bit-identical to the reference seeding.
	//
	// Alongside the exact minimum, relax maintains sq2: a conservative
	// squared lower bound on the distance to the *second*-nearest
	// chosen center (exact distances when they were computed, the skip
	// bounds shrunk by a safety factor when they were not; qB[a] is the
	// fast path's bound d(cₐ,cₘ)²/4). After the last center is relaxed,
	// (seedArg, d2, sq2) hand Lloyd's update step its assignment and
	// the empty-cluster re-seed its distances, and the assignment pass
	// its Hamerly bounds, for free.
	relax := func(m int, prev float64) float64 {
		center := centers.Row(m)
		var cs float64
		for _, v := range center {
			cs += v * v
		}
		cn2m, cnrm := cs, math.Sqrt(cs)
		dPrev := sc.dPrev[:m]
		qSkip, qB := sc.qSkip[:m], sc.qB[:m]
		dupJ := -1
		for j := 0; j < m; j++ {
			pa := Dist(centers.Row(j), center)
			dPrev[j] = pa
			if pa == 0 && dupJ < 0 {
				dupJ = j
			}
			half := 0.5 * pa * (1 - 1e-7)
			qSkip[j] = half * half * (1 - 1e-7)
			qB[j] = qSkip[j] * (1 - 1e-6)
		}
		if dupJ >= 0 {
			// The new center is coordinate-identical to chosen center
			// dupJ (a duplicate pick — routine once k exceeds the number
			// of distinct rows). SqDist against it returns the same
			// bits relax dupJ already folded in, so no weight can drop:
			// d2, the partial sums and the total are all unchanged, and
			// the whole pass is skipped. Only sq2 needs a touch-up: for
			// rows whose minimum is achieved by dupJ, the duplicate
			// sits at the minimum distance itself, capping the
			// second-nearest bound at d2 (with margin).
			if touched[dupJ] != epoch {
				touched[dupJ] = epoch
				for r := 0; r < u; r++ {
					if int(seedArg[r]) == dupJ {
						if b := d2[r] * (1 - 1e-6); b < sq2[r] {
							sq2[r] = b
						}
					}
				}
			}
			return prev
		}
		eng.ForEachChunk(u, pointChunk, func(c, lo, hi int) {
			var comp int64
			for r := lo; r < hi; r++ {
				cur := d2[r]
				if m > 0 {
					if a := seedArg[r]; cur < qSkip[a] {
						if b := qB[a]; b < sq2[r] {
							sq2[r] = b
						}
						continue
					}
					if useNorm {
						df := pnr[r] - cnrm
						if nb := df * df; nb > cur && nb-cur > normSlack*(nb+pn2[r]+cn2m) {
							if b := nb * (1 - 1e-6); b < sq2[r] {
								sq2[r] = b
							}
							continue
						}
					}
				}
				dd := SqDist(rdata[r*d:r*d+d], center)
				comp++
				if dd < cur {
					if cur < sq2[r] {
						sq2[r] = cur // the old minimum is now second
					}
					d2[r] = dd
					seedArg[r] = int32(m)
				} else if dd < sq2[r] {
					sq2[r] = dd
				}
			}
			sc.computed[c] = comp
		})
		for _, comp := range sc.computed {
			st.computed += comp
		}
		epoch++
		if m == k-1 {
			// No draw follows the last center: its weights are never
			// summed.
			return prev
		}
		// The draw's partial sums run over the points in order: the
		// addends and the order of a per-point relax.
		eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
			var sum float64
			for _, r := range rowOf[lo:hi] {
				sum += d2[r]
			}
			partial[c] = sum
		})
		var total float64
		for c := 0; c < sc.chunks; c++ {
			total += partial[c]
		}
		return total
	}
	for r := range d2 {
		d2[r] = math.Inf(1)
		sq2[r] = math.Inf(1)
	}
	var total float64
	for count := 0; count < k; count++ {
		if count > 0 {
			var pick int
			if total == 0 {
				pick = rng.IntN(n) // all points identical to some center
			} else {
				pick = drawWeighted(d2, rowOf, partial, total, rng.Float64()*total)
			}
			copy(centers.Row(count), tab.rows.Row(int(rowOf[pick])))
		}
		// The naive seeding stops relaxing after the second-to-last
		// pick (the weights are never drawn from again); relaxing the
		// last center too completes the handover state. Draws and RNG
		// consumption are unaffected.
		total = relax(count, total)
		prefix(count+1, centers, sc)
	}
	return centers
}

// drawLinear is the sequential weighted draw over the points, point i
// weighing w[rowOf[i]]: the smallest i with the weights of points 0..i
// summing to ≥ u under strict left-to-right accumulation, or the last
// point when the running sum never reaches u. It is both the reference
// semantics of the k-means++ draw and the fallback drawWeighted resolves
// through whenever float re-association makes the fast path ambiguous.
func drawLinear(w []float64, rowOf []int32, u float64) int {
	var acc float64
	for i, r := range rowOf {
		acc += w[r]
		if acc >= u {
			return i
		}
	}
	return len(rowOf) - 1
}

// drawWeighted returns exactly drawLinear(w, rowOf, u), using the
// per-chunk partial sums over the pointChunk grid (the relax pass
// already produces them) to locate the crossing chunk first, so a draw
// costs O(n/pointChunk + pointChunk) instead of O(n). The composed chunk
// prefix differs from the sequential prefix only by float
// re-association, which is bounded well below guard; any accumulator
// that lands inside the ±guard ambiguity band falls back to drawLinear,
// so the returned index — and therefore the seeding's RNG consumption
// and pick sequence — is always exactly the sequential one.
func drawWeighted(w []float64, rowOf []int32, partial []float64, total, u float64) int {
	n := len(rowOf)
	guard := total * (1e-12 + float64(n)*1e-15)
	acc := 0.0
	chunk := -1
	for c, ps := range partial {
		if acc+ps >= u-guard {
			chunk = c
			break
		}
		acc += ps
	}
	if chunk < 0 {
		// Even with the guard the sum never reaches u: the sequential
		// scan cannot reach it either.
		return n - 1
	}
	lo := chunk * pointChunk
	hi := lo + pointChunk
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		acc += w[rowOf[i]]
		if acc >= u+guard {
			return i // clear crossing: every earlier prefix was < u−guard
		}
		if acc >= u-guard {
			return drawLinear(w, rowOf, u) // ambiguous: resolve exactly
		}
	}
	// The chunk's composed end cleared u−guard but the re-accumulated
	// prefix did not: boundary noise, resolve exactly.
	return drawLinear(w, rowOf, u)
}
