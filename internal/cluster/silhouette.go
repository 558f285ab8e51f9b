package cluster

import (
	"math"

	"simprof/internal/parallel"
)

// simplifiedSilhouetteDense is the centroid-based silhouette the k
// sweep scores with: a = distance to the assigned centroid, b =
// distance to the nearest other centroid, s = (b−a)/max(a,b), averaged
// over the points. It tracks the exact pairwise silhouette closely for
// compact clusters and runs in O(n·k·d), which keeps the sweep over
// thousands of 100-dimensional sampling units cheap. Degenerate
// clusterings (all points on their centroid, no second centroid) score
// 0. The result is bit-for-bit that of the plain per-point scan, for
// any worker count (fixed chunk grid, partials merged in index order).
// The minimum over the other centroids is taken in the squared domain
// (the correctly-rounded sqrt is monotone, so √min(d²) equals min(√d²)
// exactly), and a minimum does not depend on the order its candidates
// are visited in: silhouetteTerm visits them nearest-to-own first and
// stops at the triangle bound. A point's term is a pure function of its
// vector, so it is computed once per distinct row of tab (assign is per
// row) and the terms are summed over the points in order.
func simplifiedSilhouetteDense(eng *parallel.Engine, tab *rowTable,
	centers [][]float64, assign []int) float64 {
	n, u := tab.points(), tab.distinct()
	k := len(centers)
	if n == 0 || k < 2 {
		return 0
	}
	// Inter-centroid distances, and per centroid the others in ascending
	// distance from it: row own·(k−1) of near. O(k²·d + k² log k).
	ccd := make([]float64, k*k)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			dd := Dist(centers[a], centers[b])
			ccd[a*k+b] = dd
			ccd[b*k+a] = dd
		}
	}
	near := make([]int32, k*(k-1))
	for a := 0; a < k; a++ {
		list := near[a*(k-1) : a*(k-1) : (a+1)*(k-1)]
		for c := 0; c < k; c++ {
			if c != a {
				list = append(list, int32(c))
			}
		}
		sortNear(list, ccd[a*k:a*k+k])
	}
	// term[r] is row r's silhouette; skip[r] marks a row the plain scan
	// adds nothing for (no other centroid in reach, or a and b both 0).
	term := make([]float64, u)
	skip := make([]bool, u)
	eng.ForEachChunk(u, pointChunk, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			own := assign[r]
			term[r], skip[r] = silhouetteTerm(tab.rows.Row(r), centers, own,
				ccd[own*k:own*k+k], near[own*(k-1):(own+1)*(k-1)])
		}
	})
	total := parallel.MapReduce(eng, n, pointChunk,
		func(_, lo, hi int) float64 {
			var part float64
			for _, r := range tab.rowOf[lo:hi] {
				if !skip[r] {
					part += term[r]
				}
			}
			return part
		},
		func(a, b float64) float64 { return a + b })
	return total / float64(n)
}

// silhouetteTerm is the simplified silhouette of point p assigned to
// centers[own], and whether the plain scan skips it: no other centroid
// is in reach, or a and b are both 0. ccd holds the distances from
// centers[own] to every centroid and near the other centroids in
// ascending ccd order. The search computes their distances four at a
// time and stops at the first candidate c whose triangle bound
// d(p,c) ≥ d(own,c) − a clears the running minimum under the
// elkanGuard/elkanSlack margins. Every later candidate has a ccd at
// least as large, so the bound proved for c holds for it too, up to a
// rounding of ccd far inside those margins, and the minimum is the
// plain scan's.
func silhouetteTerm(p []float64, centers [][]float64, own int, ccd []float64, near []int32) (float64, bool) {
	a := math.Sqrt(SqDist(p, centers[own]))
	bsq := math.Inf(1)
	for i := 0; i < len(near); {
		cb := ccd[near[i]]
		if g := cb - a; g > elkanGuard*(cb+a) {
			if gg := g * g; gg-bsq > elkanSlack*(gg+bsq) {
				break
			}
		}
		if i+4 > len(near) {
			bsq = lower(bsq, SqDist(p, centers[near[i]]))
			i++
			continue
		}
		v0, v1, v2, v3 := sqDist4(p, centers[near[i]], centers[near[i+1]],
			centers[near[i+2]], centers[near[i+3]])
		bsq = lower(lower(lower(lower(bsq, v0), v1), v2), v3)
		i += 4
	}
	if math.IsInf(bsq, 1) {
		return 0, true
	}
	b := math.Sqrt(bsq)
	if m := math.Max(a, b); m > 0 {
		return (b - a) / m, false
	}
	return 0, true
}

// lower is the plain scan's running-minimum step: v replaces m only when
// strictly smaller, so a NaN distance never enters the minimum (the
// builtin min would propagate it).
func lower(m, v float64) float64 {
	if v < m {
		return v
	}
	return m
}
