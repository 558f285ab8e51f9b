package matrix

import (
	"reflect"
	"testing"
)

func TestDenseRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	d := FromRows(rows)
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Fatalf("dims %dx%d", d.Rows(), d.Cols())
	}
	if !reflect.DeepEqual(d.RowViews(), rows) {
		t.Fatalf("round trip: %v", d.RowViews())
	}
	// Row views alias the backing store; FromRows must have copied.
	d.Row(0)[0] = 99
	if rows[0][0] != 1 {
		t.Fatal("FromRows aliased the input")
	}
	if d.Data()[0] != 99 {
		t.Fatal("Row is not a view")
	}
}

func TestDenseRowCapacityClipped(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	r := d.Row(0)
	if cap(r) != 2 {
		t.Fatalf("row capacity %d, want clipped to 2", cap(r))
	}
	_ = append(r, 7) // must reallocate, not clobber row 1
	if d.Row(1)[0] != 3 {
		t.Fatal("append bled into the next row")
	}
}

func TestDenseGatherRowsAndClone(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := d.GatherRows([]int{2, 0})
	want := [][]float64{{5, 6}, {1, 2}}
	if !reflect.DeepEqual(g.RowViews(), want) {
		t.Fatalf("gather: %v", g.RowViews())
	}
	c := d.Clone()
	c.Row(0)[0] = -1
	if d.Row(0)[0] != 1 {
		t.Fatal("Clone shares backing store")
	}
}

func TestDenseRowNorms2(t *testing.T) {
	d := FromRows([][]float64{{3, 4}, {0, 0}})
	n2 := d.RowNorms2(nil)
	if n2[0] != 25 || n2[1] != 0 {
		t.Fatalf("norms %v", n2)
	}
	// Reuses a caller buffer when large enough.
	buf := make([]float64, 8)
	out := d.RowNorms2(buf)
	if &out[0] != &buf[0] || len(out) != 2 {
		t.Fatal("RowNorms2 did not reuse the buffer")
	}
}

// denseFromSparse materializes the full dense form: the reference the
// CSR accessors and projections are checked against.
func denseFromSparse(s *Sparse) *Dense {
	out := NewDense(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		cs, vs := s.Row(i)
		row := out.Row(i)
		for k, c := range cs {
			row[c] = vs[k]
		}
	}
	return out
}

func buildSparse(t *testing.T) *Sparse {
	t.Helper()
	b := NewSparseBuilder(6, 3, 4)
	b.AppendRow([]int32{1, 4}, []float64{2, 7})
	b.AppendRow(nil, nil) // all-zero row
	b.AppendRow([]int32{0, 1, 5}, []float64{1, 3, 9})
	return b.Build()
}

func TestSparseBuilderAndDensify(t *testing.T) {
	s := buildSparse(t)
	if s.Rows() != 3 || s.Cols() != 6 || s.NNZ() != 5 {
		t.Fatalf("dims %dx%d nnz=%d", s.Rows(), s.Cols(), s.NNZ())
	}
	cs, vs := s.Row(2)
	if !reflect.DeepEqual(cs, []int32{0, 1, 5}) || !reflect.DeepEqual(vs, []float64{1, 3, 9}) {
		t.Fatalf("row 2: %v %v", cs, vs)
	}
	want := [][]float64{
		{0, 2, 0, 0, 7, 0},
		{0, 0, 0, 0, 0, 0},
		{1, 3, 0, 0, 0, 9},
	}
	if !reflect.DeepEqual(denseFromSparse(s).RowViews(), want) {
		t.Fatalf("densify: %v", denseFromSparse(s).RowViews())
	}
}

func TestSparseBuilderRejectsBadColumns(t *testing.T) {
	for name, cols := range map[string][]int32{
		"descending":   {3, 1},
		"duplicate":    {2, 2},
		"out-of-range": {0, 6},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			b := NewSparseBuilder(6, 1, 2)
			b.AppendRow(cols, make([]float64, len(cols)))
		})
	}
}

func TestGatherColumnsDense(t *testing.T) {
	s := buildSparse(t)
	// Projection must equal densify-then-select, including absent
	// columns reading as zero and repeated columns.
	cols := []int{4, 0, 1}
	got := s.GatherColumnsDense(cols)
	full := denseFromSparse(s)
	for i := 0; i < s.Rows(); i++ {
		for j, c := range cols {
			if got.Row(i)[j] != full.Row(i)[c] {
				t.Fatalf("[%d][%d] = %v, want %v", i, j, got.Row(i)[j], full.Row(i)[c])
			}
		}
	}
	if e := s.GatherColumnsDense(nil); e.Rows() != 3 || e.Cols() != 0 {
		t.Fatalf("empty projection dims %dx%d", e.Rows(), e.Cols())
	}
}
