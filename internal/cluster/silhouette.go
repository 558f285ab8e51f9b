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
// exactly) and candidates whose cached-norm bound proves them strictly
// worse than the running minimum are skipped without touching their
// coordinates. A point's term is a pure function of its vector, so it is
// computed once per distinct row of tab (assign is per row) and the
// terms are summed over the points in order.
func simplifiedSilhouetteDense(eng *parallel.Engine, tab *rowTable,
	centers [][]float64, assign []int) float64 {
	n, u := tab.points(), tab.distinct()
	k := len(centers)
	if n == 0 || k < 2 {
		return 0
	}
	// The skip chains only pay for themselves when a distance costs
	// more than the handful of flops each test burns; below the gate
	// the scan runs lean (same gate, and same results-unchanged
	// argument, as the Lloyd kernel's).
	useSkips := tab.rows.Cols() >= scanSkipMinDim
	var cn2, cnr, ccd []float64
	if useSkips {
		cn2 = make([]float64, k)
		cnr = make([]float64, k)
		for c, center := range centers {
			var s2 float64
			for _, v := range center {
				s2 += v * v
			}
			cn2[c] = s2
			cnr[c] = math.Sqrt(s2)
		}
		// Inter-centroid distances for the triangle-inequality skip
		// d(p,c) ≥ d(own,c) − d(p,own).
		ccd = make([]float64, k*k)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				dd := Dist(centers[a], centers[b])
				ccd[a*k+b] = dd
				ccd[b*k+a] = dd
			}
		}
	}
	// term[r] is row r's silhouette; skip[r] marks a row the plain scan
	// adds nothing for (no other centroid, or a and b both 0).
	term := make([]float64, u)
	skip := make([]bool, u)
	eng.ForEachChunk(u, pointChunk, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			term[r], skip[r] = silhouetteTerm(tab.rows.Row(r), tab.pn2[r], tab.pnr[r],
				centers, assign[r], useSkips, cn2, cnr, ccd)
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

// silhouetteTerm is the simplified silhouette of point p (squared norm
// pn2, norm pnr) assigned to centers[own], and whether the plain scan
// skips it: no other centroid is in reach, or a and b are both 0.
func silhouetteTerm(p []float64, pn2, pnr float64, centers [][]float64, own int,
	useSkips bool, cn2, cnr, ccd []float64) (float64, bool) {
	k := len(centers)
	a := math.Sqrt(SqDist(p, centers[own]))
	bsq := math.Inf(1)
	for c := range centers {
		if c == own {
			continue
		}
		if useSkips {
			cb := ccd[own*k+c]
			if g := cb - a; g > elkanGuard*(cb+a) {
				if gg := g * g; gg-bsq > elkanSlack*(gg+bsq) {
					continue
				}
			}
			df := pnr - cnr[c]
			nb := df * df
			if nb > bsq && nb-bsq > normSlack*(nb+pn2+cn2[c]) {
				continue
			}
		}
		if d := SqDist(p, centers[c]); d < bsq {
			bsq = d
		}
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
