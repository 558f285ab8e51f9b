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

// countPoints builds n rows of small integer counts in d dimensions,
// each a copy of one of `distinct` pool vectors spread over four planted
// behaviours — the shape of a long trace's phase-formation input, where
// every unit's method-frequency vector is one of a few hundred. Pool
// vectors may coincide, so the input holds at most `distinct` rows.
func countPoints(n, d, distinct int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	pool := make([][]float64, distinct)
	for v := range pool {
		pool[v] = make([]float64, d)
		for j := range pool[v] {
			pool[v][j] = float64(rng.IntN(3))
			if j%4 == v%4 {
				pool[v][j] += 8
			}
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = append([]float64(nil), pool[rng.IntN(distinct)]...)
	}
	return pts
}

// BenchmarkKMeansDense pits the naive oracle kernel (Naive) against the
// production bound-pruned one (Pruned) on the same points and engine —
// the speedup ratio is the pruning machinery's net win at the
// phase-formation problem shape.
func BenchmarkKMeansDense(b *testing.B) {
	rows := benchPoints(1000, 100, 6, 1)
	eng := parallel.New(1)
	tab := newRowTable(eng, matrix.FromRows(rows))
	b.Run("Naive", func(b *testing.B) {
		var calls atomic.Int64
		for i := 0; i < b.N; i++ {
			oracleKMeans(eng, rows, 6, Options{Seed: uint64(i)}, &calls)
		}
	})
	b.Run("Pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := kMeansDenseWith(eng, tab, 6, Options{Seed: uint64(i)}); err != nil {
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

// BenchmarkChooseKDistinctRows_200kx6 is the k sweep on a long trace's
// shape: 200k integer-count rows drawn from ~200 distinct vectors, with
// offline-1m's sweep settings (k ≤ 4, one restart) on every CPU.
func BenchmarkChooseKDistinctRows_200kx6(b *testing.B) {
	pts := matrix.FromRows(countPoints(200000, 6, 200, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := ChooseKOptions{MaxK: 4, KMeans: Options{Seed: uint64(i), Restarts: 1}}
		if _, err := ChooseKDense(pts, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSilhouetteExactVsSimplified quantifies why phase formation
// uses the centroid-based silhouette: the exact form is O(n²·d).
func BenchmarkSilhouetteExact(b *testing.B) {
	pts := benchPoints(500, 100, 4, 3)
	res, _, _ := kMeansRows(pts, 4, 0, Options{Seed: 1})
	eng := parallel.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		silhouette(eng, pts, res.Assign, 4)
	}
}

func BenchmarkSilhouetteSimplified(b *testing.B) {
	rows := benchPoints(500, 100, 4, 3)
	eng := parallel.Default()
	tab := newRowTable(eng, matrix.FromRows(rows))
	res, _, _ := kMeansRows(rows, 4, 0, Options{Seed: 1})
	assign := rowAssign(tab, res.Assign)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simplifiedSilhouetteDense(eng, tab, res.Centers, assign)
	}
}
