package cluster

import (
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

func BenchmarkKMeans_1000x100(b *testing.B) {
	pts := benchPoints(1000, 100, 6, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(pts, 6, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansDense pits the retained naive Lloyd kernel against the
// production bound-pruned one on the same flat matrix, shared norms and
// engine — the speedup ratio is the pruning machinery's net win at the
// phase-formation problem shape.
func BenchmarkKMeansDense(b *testing.B) {
	pts := matrix.FromRows(benchPoints(1000, 100, 6, 1))
	pn2, pnr := pointNorms(pts)
	eng := parallel.New(1)
	for _, bc := range []struct {
		name  string
		naive bool
	}{{"Naive", true}, {"Pruned", false}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := Options{Seed: uint64(i), naive: bc.naive}
				if _, _, err := kMeansDenseWith(eng, pts, pn2, pnr, 6, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChooseK is the full phase-formation k sweep (k ∈ [1,20] with
// the silhouette scoring), the dominant cost of SimProf's analysis.
// The serial variant pins Workers=1 (the baseline the determinism suite
// compares against); the parallel variant runs the default pool.
func benchChooseK(b *testing.B, workers int) {
	pts := benchPoints(1000, 100, 6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := ChooseKOptions{KMeans: Options{Seed: uint64(i)}, Workers: workers}
		if _, err := ChooseK(pts, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChooseKSerial_1000x100(b *testing.B)   { benchChooseK(b, 1) }
func BenchmarkChooseKParallel_1000x100(b *testing.B) { benchChooseK(b, 0) }

// BenchmarkSilhouetteExactVsSimplified quantifies why phase formation
// uses the centroid-based silhouette: the exact form is O(n²·d).
func BenchmarkSilhouetteExact(b *testing.B) {
	pts := benchPoints(500, 100, 4, 3)
	res, _ := KMeans(pts, 4, Options{Seed: 1})
	eng := parallel.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SilhouetteWith(eng, pts, res.Assign, 4)
	}
}

// BenchmarkSilhouetteParallel is the acceptance benchmark for the O(n²)
// exact silhouette on the GOMAXPROCS-sized pool.
func BenchmarkSilhouetteParallel(b *testing.B) {
	pts := benchPoints(500, 100, 4, 3)
	res, _ := KMeans(pts, 4, Options{Seed: 1})
	eng := parallel.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SilhouetteWith(eng, pts, res.Assign, 4)
	}
}

func BenchmarkSilhouetteSimplified(b *testing.B) {
	pts := benchPoints(500, 100, 4, 3)
	res, _ := KMeans(pts, 4, Options{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimplifiedSilhouette(pts, res.Centers, res.Assign)
	}
}
