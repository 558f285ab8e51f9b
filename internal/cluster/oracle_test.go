package cluster

import (
	"math"
	"math/rand/v2"
	"sync/atomic"

	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// The reference kernels the production kernels are held to: plain
// Lloyd with k-means++ seeding over [][]float64 rows (every
// point–center distance computed on every pass), the row-based
// simplified silhouette, and the exact pairwise silhouette. They run on
// the production chunk grid and merge order, so the pruned flat-matrix
// kernels must reproduce them bit-for-bit (DESIGN.md §12). The naive
// k-means counts every SqDist call it makes, which is the workload the
// pruned kernel's distStats.equivalent claims to stand for.

// distCount counts the SqDist calls of one sequential stretch of oracle
// work; chunked loops keep one per chunk and fold it into the run total.
type distCount int64

func (c *distCount) sqDist(a, b []float64) float64 {
	*c++
	return SqDist(a, b)
}

// nearestCenter returns the index of the center closest to p and the
// squared distance to it: a strict-< scan, so the lowest index wins
// ties; -1 and +Inf for no centers.
func nearestCenter(p []float64, centers [][]float64, dc *distCount) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for c, center := range centers {
		if d := dc.sqDist(p, center); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// oracleKMeans is kMeansDenseWith on the naive kernel: k clamped to the
// point count, the same per-restart seeds, and the lowest-inertia
// restart wins (ties keep the lowest index). Every SqDist call is added
// to calls.
func oracleKMeans(eng *parallel.Engine, points [][]float64, k int, opts Options, calls *atomic.Int64) Result {
	k = min(k, len(points))
	o := opts.withDefaults()
	results := make([]Result, o.Restarts)
	eng.ForEachIndex(o.Restarts, func(r int) {
		rng := stats.NewRNG(stats.SplitSeed(o.Seed, uint64(r)))
		results[r] = lloyd(points, k, rng, eng, calls)
	})
	best := Result{Inertia: math.Inf(1)}
	for _, res := range results {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best
}

// assignPoints runs one chunked assignment pass against centers: it
// fills assign, merges per-chunk cluster sizes into sizes (chunk index
// order) and returns the inertia. When accumulate is true it also
// gathers per-chunk centroid partial sums for the update step.
func assignPoints(eng *parallel.Engine, points [][]float64, centers [][]float64,
	assign []int, sizes []int, sc *lloydScratch, accumulate bool, calls *atomic.Int64) float64 {
	n := len(points)
	d := len(points[0])
	eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
		szs := sc.sizes[c]
		for i := range szs {
			szs[i] = 0
		}
		var sums []float64
		if accumulate {
			sums = sc.sums[c]
			for i := range sums {
				sums[i] = 0
			}
		}
		var inertia float64
		var dc distCount
		for i := lo; i < hi; i++ {
			p := points[i]
			ci, dist := nearestCenter(p, centers, &dc)
			assign[i] = ci
			szs[ci]++
			inertia += dist
			if accumulate {
				row := sums[ci*d : ci*d+d]
				for j, v := range p {
					row[j] += v
				}
			}
		}
		sc.inertia[c] = inertia
		calls.Add(int64(dc))
	})
	for i := range sizes {
		sizes[i] = 0
	}
	var inertia float64
	for c := 0; c < sc.chunks; c++ {
		for i, s := range sc.sizes[c] {
			sizes[i] += s
		}
		inertia += sc.inertia[c]
	}
	return inertia
}

// lloyd is one naive k-means restart: k-means++ seeding, an assignment
// pass to the seeds that computes every point–center distance, one
// centroid update, and a final assignment pass to the updated centers.
func lloyd(points [][]float64, k int, rng *rand.Rand, eng *parallel.Engine, calls *atomic.Int64) Result {
	n, d := len(points), len(points[0])
	seeds := seedPlusPlus(points, k, rng, eng, calls)
	assign := make([]int, n)
	sizes := make([]int, k)
	sc := new(lloydScratch)
	sc.ensure(n, n, k, d)
	// Fused assignment + partial-sum pass against the seeds.
	assignPoints(eng, points, seeds, assign, sizes, sc, true, calls)
	// Update step: merge the per-chunk partial sums in chunk index
	// order, then normalize.
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
	}
	for c := 0; c < sc.chunks; c++ {
		sums := sc.sums[c]
		for cl := 0; cl < k; cl++ {
			row := centers[cl]
			part := sums[cl*d : cl*d+d]
			for j, v := range part {
				row[j] += v
			}
		}
	}
	for c := range centers {
		if sizes[c] == 0 {
			// Re-seed an empty cluster at the point farthest from its
			// seed.
			far, farD := 0, -1.0
			var dc distCount
			for i, p := range points {
				if dd := dc.sqDist(p, seeds[assign[i]]); dd > farD {
					far, farD = i, dd
				}
			}
			calls.Add(int64(dc))
			copy(centers[c], points[far])
			continue
		}
		inv := 1 / float64(sizes[c])
		for j := range centers[c] {
			centers[c][j] *= inv
		}
	}
	// Final assignment pass so Assign/Sizes/Inertia are consistent with
	// the returned (updated) centers.
	inertia := assignPoints(eng, points, centers, assign, sizes, sc, false, calls)
	return Result{K: k, Centers: centers, Assign: assign, Sizes: sizes, Inertia: inertia}
}

// seedPlusPlus picks k initial centers with the k-means++ D² weighting.
// The squared distance to the nearest chosen center is maintained
// incrementally (each new center can only lower it); the distance
// update is chunked on the engine, the weighted draw is the sequential
// drawLinear.
func seedPlusPlus(points [][]float64, k int, rng *rand.Rand, eng *parallel.Engine, calls *atomic.Int64) [][]float64 {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := rng.IntN(n)
	centers = append(centers, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	chunks := parallel.Chunks(n, pointChunk)
	partial := make([]float64, chunks)
	// Every point is its own row of the draw.
	ident := make([]int32, n)
	for i := range ident {
		ident[i] = int32(i)
	}
	relax := func(center []float64) float64 {
		eng.ForEachChunk(n, pointChunk, func(c, lo, hi int) {
			var sum float64
			var dc distCount
			for i := lo; i < hi; i++ {
				if dd := dc.sqDist(points[i], center); dd < d2[i] {
					d2[i] = dd
				}
				sum += d2[i]
			}
			partial[c] = sum
			calls.Add(int64(dc))
		})
		var total float64
		for _, p := range partial {
			total += p
		}
		return total
	}
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	total := relax(centers[0])
	for len(centers) < k {
		var pick int
		if total == 0 {
			pick = rng.IntN(n) // all points identical to some center
		} else {
			pick = drawLinear(d2, ident, rng.Float64()*total)
		}
		centers = append(centers, append([]float64(nil), points[pick]...))
		if len(centers) < k {
			total = relax(centers[len(centers)-1])
		}
	}
	return centers
}

// simplifiedSilhouetteRows is the plain per-point simplified silhouette
// simplifiedSilhouetteDense must reproduce: a = distance to the
// assigned centroid, b = distance to the nearest other centroid.
func simplifiedSilhouetteRows(eng *parallel.Engine, points [][]float64, centers [][]float64, assign []int) float64 {
	n := len(points)
	k := len(centers)
	if n == 0 || k < 2 {
		return 0
	}
	total := parallel.MapReduce(eng, n, pointChunk,
		func(_, lo, hi int) float64 {
			var part float64
			for i := lo; i < hi; i++ {
				p := points[i]
				a := Dist(p, centers[assign[i]])
				b := math.Inf(1)
				for c := range centers {
					if c == assign[i] {
						continue
					}
					if d := Dist(p, centers[c]); d < b {
						b = d
					}
				}
				if math.IsInf(b, 1) {
					continue
				}
				if m := math.Max(a, b); m > 0 {
					part += (b - a) / m
				}
			}
			return part
		},
		func(a, b float64) float64 { return a + b })
	return total / float64(n)
}

const silhouetteChunk = 32 // small: each outer point costs O(n·d)

// silhouette returns the exact mean silhouette coefficient: for each
// point, a = mean distance to its own cluster's other members, b =
// lowest mean distance to another cluster, s = (b−a)/max(a,b). Points
// in singleton clusters contribute 0 (the sklearn convention). O(n²·d);
// it is the yardstick the simplified silhouette is judged against.
func silhouette(eng *parallel.Engine, points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if n == 0 || k < 2 {
		return 0
	}
	sizes := make([]int, k)
	for _, c := range assign {
		sizes[c]++
	}
	total := parallel.MapReduce(eng, n, silhouetteChunk, func(_, lo, hi int) float64 {
		return silhouetteRange(points, assign, sizes, k, lo, hi)
	}, func(a, b float64) float64 { return a + b })
	return total / float64(n)
}

// silhouetteRange sums the silhouette terms of points [lo, hi).
func silhouetteRange(points [][]float64, assign []int, sizes []int, k, lo, hi int) float64 {
	sum := make([]float64, k) // per-chunk scratch: cluster → Σ dist
	var part float64
	for i := lo; i < hi; i++ {
		p := points[i]
		for c := range sum {
			sum[c] = 0
		}
		for j, q := range points {
			if i == j {
				continue
			}
			sum[assign[j]] += Dist(p, q)
		}
		ci := assign[i]
		if sizes[ci] <= 1 {
			continue // silhouette of a singleton is defined as 0
		}
		a := sum[ci] / float64(sizes[ci]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			if m := sum[c] / float64(sizes[c]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		if m := math.Max(a, b); m > 0 {
			part += (b - a) / m
		}
	}
	return part
}
