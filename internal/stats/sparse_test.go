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

// countProblem is sparseProblem without the dense mirror, at a given
// density, for inputs too large to densify: n count-valued rows over d
// columns, with column 0 informative.
func countProblem(seed uint64, n, d int, density float64) (*matrix.Sparse, []float64) {
	rng := NewRNG(seed)
	b := matrix.NewSparseBuilder(d, n, 0)
	target := make([]float64, n)
	var cols []int32
	var vals []float64
	for i := 0; i < n; i++ {
		cols, vals = cols[:0], vals[:0]
		for j := 0; j < d; j++ {
			if rng.Float64() < density {
				cols = append(cols, int32(j))
				vals = append(vals, float64(1+rng.IntN(20)))
			}
		}
		b.AppendRow(cols, vals)
		target[i] = rng.NormFloat64()
		if len(cols) > 0 && cols[0] == 0 {
			target[i] += vals[0] * 0.3
		}
	}
	return b.Build(), target
}

// fRegressionByColumn is the dense oracle one column at a time: each
// column of the selected rows is scattered into a dense vector and
// scored as FScore of its Pearson r, so only O(n + nnz) is held.
func fRegressionByColumn(X *matrix.Sparse, rows []int, target []float64) []float64 {
	type entry struct {
		pos int
		v   float64
	}
	byCol := make([][]entry, X.Cols())
	for pos, r := range rows {
		cs, vs := X.Row(r)
		for k, c := range cs {
			byCol[c] = append(byCol[c], entry{pos, vs[k]})
		}
	}
	scores := make([]float64, X.Cols())
	col := make([]float64, len(rows))
	for j, es := range byCol {
		clear(col)
		for _, e := range es {
			col[e.pos] = e.v
		}
		scores[j] = FScore(Pearson(col, target), len(rows))
	}
	return scores
}

// fRegressionSerial is F-regression's two nonzero passes as one serial
// scan of rows: the summation order FRegressionSparseWith keeps bit for
// bit while rows fits one chunk.
func fRegressionSerial(X *matrix.Sparse, rows []int, target []float64) []float64 {
	n, d := len(rows), X.Cols()
	my := Mean(target)
	var syy, sydev float64
	ydev := make([]float64, n)
	for i, y := range target {
		ydev[i] = y - my
		syy += ydev[i] * ydev[i]
		sydev += ydev[i]
	}
	sx, nnz := make([]float64, d), make([]int, d)
	for _, r := range rows {
		cs, vs := X.Row(r)
		for k, c := range cs {
			sx[c] += vs[k]
			nnz[c]++
		}
	}
	mx := make([]float64, d)
	for j := range mx {
		mx[j] = sx[j] / float64(n)
	}
	sxx, sxy, synz := make([]float64, d), make([]float64, d), make([]float64, d)
	for i, r := range rows {
		cs, vs := X.Row(r)
		for k, c := range cs {
			dx := vs[k] - mx[c]
			sxx[c] += dx * dx
			sxy[c] += dx * ydev[i]
			synz[c] += ydev[i]
		}
	}
	scores := make([]float64, d)
	for j := range scores {
		vxx := sxx[j] + float64(n-nnz[j])*mx[j]*mx[j]
		vxy := sxy[j] - mx[j]*(sydev-synz[j])
		if vxx != 0 && syy != 0 {
			scores[j] = FScore(vxy/math.Sqrt(vxx*syy), n)
		}
	}
	return scores
}

// shuffledRows lists every row of an n-row matrix but every seventh, in
// a seeded order, so chunks of rows are neither contiguous nor sorted.
func shuffledRows(seed uint64, n int) []int {
	var rows []int
	for i := 0; i < n; i++ {
		if i%7 != 3 {
			rows = append(rows, i)
		}
	}
	rng := NewRNG(seed)
	for i := len(rows) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		rows[i], rows[j] = rows[j], rows[i]
	}
	return rows
}

// TestFRegressionChunkedMatchesDense: on row sets spanning several
// rowChunk chunks, a tall one and a wide one, the chunked scores are the
// same bits at workers 1, 2 and 8, and within 1e-9 of the dense oracle.
func TestFRegressionChunkedMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, d    int
		density float64
	}{
		{"tall", 3*rowChunk + 500, 24, 0.2},
		{"wide", rowChunk + rowChunk/2, 900, 0.01},
	} {
		X, fullTarget := countProblem(31, tc.n, tc.d, tc.density)
		rows := shuffledRows(5, tc.n)
		target := make([]float64, len(rows))
		for i, r := range rows {
			target[i] = fullTarget[r]
		}
		if c := parallel.Chunks(len(rows), rowChunk); c < 2 {
			t.Fatalf("%s: %d rows fill %d chunk, want several", tc.name, len(rows), c)
		}
		base := FRegressionSparseWith(parallel.New(1), X, rows, target)
		for _, w := range []int{2, 8} {
			got := FRegressionSparseWith(parallel.New(w), X, rows, target)
			for j := range base {
				if math.Float64bits(got[j]) != math.Float64bits(base[j]) {
					t.Fatalf("%s workers=%d col %d: %v vs %v", tc.name, w, j, got[j], base[j])
				}
			}
		}
		want := fRegressionByColumn(X, rows, target)
		for j := range want {
			if math.Abs(base[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
				t.Fatalf("%s col %d: got %v want %v", tc.name, j, base[j], want[j])
			}
		}
	}
}

// TestFRegressionOneChunkMatchesSerial: while the rows fit one chunk the
// scores are bit-identical to one serial scan of them, up to a row set
// of exactly rowChunk rows.
func TestFRegressionOneChunkMatchesSerial(t *testing.T) {
	for _, n := range []int{3, 150, rowChunk} {
		X, target := countProblem(uint64(n), n, 30, 0.15)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		want := fRegressionSerial(X, rows, target)
		for _, w := range []int{1, 2} {
			got := FRegressionSparseWith(parallel.New(w), X, rows, target)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d workers=%d col %d: %v, serial scan %v", n, w, j, got[j], want[j])
				}
			}
		}
	}
}
