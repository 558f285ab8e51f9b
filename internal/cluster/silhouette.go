package cluster

import (
	"math"

	"simprof/internal/matrix"
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
// coordinates.
func simplifiedSilhouetteDense(eng *parallel.Engine, pts *matrix.Dense,
	pn2, pnr []float64, centers [][]float64, assign []int) float64 {
	n := pts.Rows()
	k := len(centers)
	if n == 0 || k < 2 {
		return 0
	}
	// The skip chains only pay for themselves when a distance costs
	// more than the handful of flops each test burns; below the gate
	// the scan runs lean (same gate, and same results-unchanged
	// argument, as the Lloyd kernel's).
	useSkips := pts.Cols() >= scanSkipMinDim
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
	total := parallel.MapReduce(eng, n, pointChunk,
		func(_, lo, hi int) float64 {
			var part float64
			for i := lo; i < hi; i++ {
				p := pts.Row(i)
				own := assign[i]
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
						df := pnr[i] - cnr[c]
						nb := df * df
						if nb > bsq && nb-bsq > normSlack*(nb+pn2[i]+cn2[c]) {
							continue
						}
					}
					if d := SqDist(p, centers[c]); d < bsq {
						bsq = d
					}
				}
				if math.IsInf(bsq, 1) {
					continue
				}
				b := math.Sqrt(bsq)
				if m := math.Max(a, b); m > 0 {
					part += (b - a) / m
				}
			}
			return part
		},
		func(a, b float64) float64 { return a + b })
	return total / float64(n)
}
