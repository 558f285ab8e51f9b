package stats

import (
	"math"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
)

// fRegressionDense is the dense F-regression FRegressionSparseWith is
// held to: features is row-major (features[i] is observation i), and
// each column's score is FScore of its Pearson correlation with the
// target.
func fRegressionDense(features [][]float64, target []float64) []float64 {
	n := len(features)
	scores := make([]float64, len(features[0]))
	col := make([]float64, n)
	for j := range scores {
		for i := 0; i < n; i++ {
			col[i] = features[i][j]
		}
		scores[j] = FScore(Pearson(col, target), n)
	}
	return scores
}

// sparseProblem builds a random CSR matrix with count-like entries (the
// shape of vectorized sampling units) plus its dense mirror.
func sparseProblem(seed uint64, n, d int) (*matrix.Sparse, [][]float64, []float64) {
	rng := NewRNG(seed)
	b := matrix.NewSparseBuilder(d, n, 0)
	dense := make([][]float64, n)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		var cols []int32
		var vals []float64
		for j := 0; j < d; j++ {
			if rng.Float64() < 0.15 { // ~85% zeros
				v := float64(1 + rng.IntN(20))
				row[j] = v
				cols = append(cols, int32(j))
				vals = append(vals, v)
			}
		}
		b.AppendRow(cols, vals)
		dense[i] = row
		target[i] = rng.NormFloat64() + row[0]*0.3 // feature 0 informative
	}
	return b.Build(), dense, target
}

// TestFRegressionSparseMatchesDense holds the CSR scoring to the dense
// oracle, to float rounding.
func TestFRegressionSparseMatchesDense(t *testing.T) {
	eng := parallel.New(1)
	for _, seed := range []uint64{1, 7, 42} {
		sp, dense, target := sparseProblem(seed, 120, 40)
		rows := make([]int, len(dense))
		for i := range rows {
			rows[i] = i
		}
		want := fRegressionDense(dense, target)
		got := FRegressionSparseWith(eng, sp, rows, target)
		if len(got) != len(want) {
			t.Fatalf("len %d want %d", len(got), len(want))
		}
		for j := range want {
			if math.IsInf(want[j], 1) {
				if !math.IsInf(got[j], 1) {
					t.Fatalf("seed %d col %d: got %v want +Inf", seed, j, got[j])
				}
				continue
			}
			diff := math.Abs(got[j] - want[j])
			if diff > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("seed %d col %d: got %v want %v", seed, j, got[j], want[j])
			}
		}
	}
}

// TestFRegressionSparseRowSubset pins the subset semantics: scoring a
// row subset must match a dense scoring of just those rows.
func TestFRegressionSparseRowSubset(t *testing.T) {
	eng := parallel.New(1)
	sp, dense, target := sparseProblem(11, 90, 25)
	var rows []int
	var subDense [][]float64
	var subTarget []float64
	for i := 0; i < len(dense); i += 3 {
		rows = append(rows, i)
		subDense = append(subDense, dense[i])
		subTarget = append(subTarget, target[i])
	}
	want := fRegressionDense(subDense, subTarget)
	got := FRegressionSparseWith(eng, sp, rows, subTarget)
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
			t.Fatalf("col %d: got %v want %v", j, got[j], want[j])
		}
	}
}

// TestFRegressionSparseWorkerInvariant asserts bit-identical scores for
// every worker count (the scoring fan-out writes disjoint slots).
func TestFRegressionSparseWorkerInvariant(t *testing.T) {
	sp, dense, target := sparseProblem(23, 150, 60)
	rows := make([]int, len(dense))
	for i := range rows {
		rows[i] = i
	}
	base := FRegressionSparseWith(parallel.New(1), sp, rows, target)
	for _, w := range []int{2, 8} {
		got := FRegressionSparseWith(parallel.New(w), sp, rows, target)
		for j := range base {
			if base[j] != got[j] {
				t.Fatalf("workers=%d col %d: %v vs %v", w, j, got[j], base[j])
			}
		}
	}
}

func TestFRegressionSparseDegenerate(t *testing.T) {
	// Fewer than 3 observations → all-zero scores, no panic.
	b := matrix.NewSparseBuilder(3, 2, 0)
	b.AppendRow([]int32{0}, []float64{1})
	b.AppendRow([]int32{1}, []float64{2})
	got := FRegressionSparseWith(parallel.New(1), b.Build(), []int{0, 1}, []float64{1, 2})
	for j, s := range got {
		if s != 0 {
			t.Fatalf("col %d: %v, want 0", j, s)
		}
	}
}
