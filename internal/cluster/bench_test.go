package cluster

import (
	"sync/atomic"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// benchPoints builds n points in d dimensions around k true centers —
// the shape of phase-formation inputs (N sampling units × top-K method
// dimensions).
func benchPoints(n, d, k int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 20
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centers[i%k]
		p := make([]float64, d)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkKMeansDense pits the naive oracle kernel (Naive) against the
// production bound-pruned one (Pruned) on the same points and engine —
// the speedup ratio is the pruning machinery's net win at the
// phase-formation problem shape.
func BenchmarkKMeansDense(b *testing.B) {
	rows := benchPoints(1000, 100, 6, 1)
	pts := matrix.FromRows(rows)
	pn2, pnr := pointNorms(pts)
	eng := parallel.New(1)
	b.Run("Naive", func(b *testing.B) {
		var calls atomic.Int64
		for i := 0; i < b.N; i++ {
			oracleKMeans(eng, rows, 6, Options{Seed: uint64(i)}, &calls)
		}
	})
	b.Run("Pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kMeansDenseWith(eng, pts, pn2, pnr, 6, Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChooseKSerial_1000x100 is the full phase-formation k sweep
// (k ∈ [1,20] with the silhouette scoring), the dominant cost of
// SimProf's analysis, pinned to one worker.
func BenchmarkChooseKSerial_1000x100(b *testing.B) {
	pts := matrix.FromRows(benchPoints(1000, 100, 6, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := ChooseKOptions{KMeans: Options{Seed: uint64(i)}, Workers: 1}
		if _, err := ChooseKDense(pts, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSilhouetteExactVsSimplified quantifies why phase formation
// uses the centroid-based silhouette: the exact form is O(n²·d).
func BenchmarkSilhouetteExact(b *testing.B) {
	pts := benchPoints(500, 100, 4, 3)
	res, _, _ := kMeansRows(pts, 4, Options{Seed: 1})
	eng := parallel.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		silhouette(eng, pts, res.Assign, 4)
	}
}

func BenchmarkSilhouetteSimplified(b *testing.B) {
	rows := benchPoints(500, 100, 4, 3)
	pts := matrix.FromRows(rows)
	pn2, pnr := pointNorms(pts)
	res, _, _ := kMeansRows(rows, 4, Options{Seed: 1})
	eng := parallel.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simplifiedSilhouetteDense(eng, pts, pn2, pnr, res.Centers, res.Assign)
	}
}
