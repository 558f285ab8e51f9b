package cluster

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// naiveRowTable is the reference distinct-row table: a serial scan
// keyed by each row's float64 bit patterns, ids in first-occurrence
// order.
func naiveRowTable(pts *matrix.Dense) (rows [][]uint64, rowOf []int32) {
	ids := map[string]int32{}
	for i := 0; i < pts.Rows(); i++ {
		bits := make([]uint64, pts.Cols())
		key := make([]byte, 0, 8*pts.Cols())
		for j, v := range pts.Row(i) {
			bits[j] = math.Float64bits(v)
			for b := 0; b < 64; b += 8 {
				key = append(key, byte(bits[j]>>b))
			}
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(rows))
			ids[string(key)] = id
			rows = append(rows, bits)
		}
		rowOf = append(rowOf, id)
	}
	return rows, rowOf
}

// checkRowTable holds newRowTable on pts to the naive table, bit for
// bit, norms included, and returns it.
func checkRowTable(t *testing.T, eng *parallel.Engine, pts *matrix.Dense) *rowTable {
	t.Helper()
	tab := newRowTable(eng, pts)
	wantRows, wantRowOf := naiveRowTable(pts)
	if !reflect.DeepEqual(append([]int32{}, tab.rowOf...), append([]int32{}, wantRowOf...)) {
		t.Fatalf("rowOf diverged from the first-occurrence scan")
	}
	if tab.distinct() != len(wantRows) || tab.rows.Cols() != pts.Cols() {
		t.Fatalf("table is %d×%d, want %d×%d", tab.distinct(), tab.rows.Cols(), len(wantRows), pts.Cols())
	}
	for r, want := range wantRows {
		var s2 float64
		for j, v := range tab.rows.Row(r) {
			if math.Float64bits(v) != want[j] {
				t.Fatalf("row %d col %d: bits %#x, want %#x", r, j, math.Float64bits(v), want[j])
			}
			s2 += v * v
		}
		if math.Float64bits(tab.pn2[r]) != math.Float64bits(s2) ||
			math.Float64bits(tab.pnr[r]) != math.Float64bits(math.Sqrt(s2)) {
			t.Fatalf("row %d: norms %v, %v; want %v, %v", r, tab.pn2[r], tab.pnr[r], s2, math.Sqrt(s2))
		}
	}
	return tab
}

// TestRowTableFirstOccurrence: ids follow first occurrence, on a
// duplicate-heavy input spanning several grid chunks and on small
// inputs, empty and single-point ones included.
func TestRowTableFirstOccurrence(t *testing.T) {
	for _, rows := range [][][]float64{
		countPoints(3*tableChunk+17, 6, 50, 3),
		countPoints(300, 4, 7, 5),
		{{1, 2}},
		nil,
	} {
		for _, w := range workerSweep {
			checkRowTable(t, parallel.New(w), matrix.FromRows(rows))
		}
	}
}

// TestRowTableBitwiseKeys: rows are equal only when their bits are, so
// −0 and +0 are different rows, and a NaN bit pattern forms one row
// with itself but not with another NaN pattern.
func TestRowTableBitwiseKeys(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, otherNaN := math.NaN(), math.Float64frombits(0xfff8000000000000)
	pts := matrix.FromRows([][]float64{
		{0, 1}, {negZero, 1}, {nan, 1}, {nan, 1}, {otherNaN, 1}, {0, 1}, {negZero, 1}, {1, nan},
	})
	tab := checkRowTable(t, parallel.New(1), pts)
	if want := []int32{0, 1, 2, 2, 3, 0, 1, 4}; !reflect.DeepEqual(tab.rowOf, want) {
		t.Fatalf("rowOf = %v, want %v", tab.rowOf, want)
	}
}

// TestRowTableExtremes: one distinct row, and every row distinct, each
// across several grid chunks.
func TestRowTableExtremes(t *testing.T) {
	n := 3*tableChunk + 5
	same := make([][]float64, n)
	for i := range same {
		same[i] = []float64{2, 0, 7}
	}
	distinct := benchPoints(n, 3, 4, 11)
	for _, tc := range []struct {
		rows [][]float64
		u    int
	}{{same, 1}, {distinct, n}} {
		tab := checkRowTable(t, parallel.New(2), matrix.FromRows(tc.rows))
		if tab.distinct() != tc.u {
			t.Fatalf("%d distinct rows, want %d", tab.distinct(), tc.u)
		}
	}
}

// TestRowTableWorkerInvariant: the table is the same at GOMAXPROCS 1, 2
// and 8, for engines of 1, 2 and 8 workers, on an input whose
// duplicates straddle at least three grid chunks.
func TestRowTableWorkerInvariant(t *testing.T) {
	rows := countPoints(4*tableChunk+123, 6, 300, 13)
	// Spread a few repeats of early rows over the later chunks.
	rng := stats.NewRNG(13)
	for i := 0; i < 200; i++ {
		copy(rows[len(rows)-1-rng.IntN(2*tableChunk)], rows[rng.IntN(64)])
	}
	pts := matrix.FromRows(rows)
	if c := parallel.Chunks(pts.Rows(), tableChunk); c < 3 {
		t.Fatalf("input spans %d grid chunks, want ≥ 3", c)
	}
	base := newRowTable(parallel.New(1), pts)
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, w := range workerSweep {
			got := newRowTable(parallel.New(w), pts)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("GOMAXPROCS=%d workers=%d: table diverged (%d vs %d rows)",
					procs, w, got.distinct(), base.distinct())
			}
		}
	}
}
