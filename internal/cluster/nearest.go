package cluster

import "math"

// NearestSet is a fixed set of centers prepared for repeated
// nearest-center queries: the squared norm and the norm of every center
// are cached once, so each query can skip candidates whose norm bound
// (‖p‖−‖c‖)² proves them strictly worse than the current best without
// touching the center's coordinates. Phase formation uses it to classify
// degraded units against the chosen centroids, and sensitivity analysis
// to classify every unit of a reference-input trace.
type NearestSet struct {
	centers  [][]float64
	cn2, cnr []float64
}

// NewNearestSet caches the norms of centers. The centers are aliased,
// not copied; they must not be mutated while the set is in use.
func NewNearestSet(centers [][]float64) *NearestSet {
	s := &NearestSet{
		centers: centers,
		cn2:     make([]float64, len(centers)),
		cnr:     make([]float64, len(centers)),
	}
	for c, center := range centers {
		var s2 float64
		for _, v := range center {
			s2 += v * v
		}
		s.cn2[c] = s2
		s.cnr[c] = math.Sqrt(s2)
	}
	return s
}

// Nearest returns the index of the center closest to p and the squared
// distance to it, bit-for-bit what a plain strict-< scan over every
// center returns (lowest index wins ties; -1 and +Inf for an empty
// set). A candidate is skipped only when its norm bound shows — with
// the normSlack safety margin — that its distance strictly exceeds the
// current best, so under that scan it could never have been selected.
func (s *NearestSet) Nearest(p []float64) (int, float64) {
	var pn2 float64
	for _, v := range p {
		pn2 += v * v
	}
	pnr := math.Sqrt(pn2)
	best, bestD := -1, math.Inf(1)
	for c, center := range s.centers {
		df := pnr - s.cnr[c]
		nb := df * df
		if nb > bestD && nb-bestD > normSlack*(nb+pn2+s.cn2[c]) {
			continue
		}
		if d := SqDist(p, center); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
