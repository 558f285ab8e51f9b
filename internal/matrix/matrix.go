// Package matrix provides the flat numeric containers SimProf's compute
// kernels run on: a row-major Dense matrix backed by one contiguous
// allocation (so point loops walk linear memory instead of chasing
// [][]float64 row pointers), and a CSR-style Sparse matrix for the
// method-frequency vectors of phase formation, which are overwhelmingly
// zero (a sampling unit touches a handful of methods out of the whole
// interned table).
//
// Both types are plain data: they carry no concurrency of their own and
// are safe for concurrent readers. The kernels in internal/cluster,
// internal/stats and internal/phase own the parallel loops.
package matrix

import "fmt"

// Dense is a row-major rows×cols matrix with a contiguous backing array.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed rows×cols matrix. Negative dimensions panic;
// zero dimensions are allowed (an empty matrix).
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewDense(%d, %d)", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows copies a [][]float64 into a Dense. All rows must share the
// first row's length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != d.cols {
			panic(fmt.Sprintf("matrix: FromRows row %d has %d cols, want %d", i, len(r), d.cols))
		}
		copy(d.data[i*d.cols:(i+1)*d.cols], r)
	}
	return d
}

// Rows returns the row count.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the column count.
func (d *Dense) Cols() int { return d.cols }

// Row returns row i as a slice view into the backing array. The view's
// capacity is clipped to the row, so an append can never bleed into the
// next row.
func (d *Dense) Row(i int) []float64 {
	lo := i * d.cols
	return d.data[lo : lo+d.cols : lo+d.cols]
}

// Data returns the backing array (rows*cols, row-major).
func (d *Dense) Data() []float64 { return d.data }

// RowViews returns every row as a view. The result aliases the matrix;
// it exists so flat-backed kernels can keep feeding the historical
// [][]float64 APIs without copying.
func (d *Dense) RowViews() [][]float64 {
	out := make([][]float64, d.rows)
	for i := range out {
		out[i] = d.Row(i)
	}
	return out
}

// GatherRows copies the given rows (in order) into a new Dense.
func (d *Dense) GatherRows(idx []int) *Dense {
	out := NewDense(len(idx), d.cols)
	for k, i := range idx {
		copy(out.Row(k), d.Row(i))
	}
	return out
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.rows, d.cols)
	copy(out.data, d.data)
	return out
}

// RowNorms2 writes the squared Euclidean norm of every row into dst
// (allocated when nil or too short) and returns it. The per-row sum runs
// in index order, so the result is deterministic.
func (d *Dense) RowNorms2(dst []float64) []float64 {
	if cap(dst) < d.rows {
		dst = make([]float64, d.rows)
	}
	dst = dst[:d.rows]
	for i := 0; i < d.rows; i++ {
		var s float64
		for _, v := range d.Row(i) {
			s += v * v
		}
		dst[i] = s
	}
	return dst
}

// Sparse is a CSR (compressed sparse row) matrix: row i's nonzero
// entries are Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]],
// with column indices strictly ascending within each row.
type Sparse struct {
	rows, cols int
	RowPtr     []int
	Col        []int32
	Val        []float64
}

// Rows returns the row count.
func (s *Sparse) Rows() int { return s.rows }

// Cols returns the column count.
func (s *Sparse) Cols() int { return s.cols }

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

// Row returns views of row i's column indices and values.
func (s *Sparse) Row(i int) ([]int32, []float64) {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	return s.Col[lo:hi], s.Val[lo:hi]
}

// SparseBuilder assembles a Sparse from per-row (column, value) pairs.
// Rows are appended in order; columns within a row must be strictly
// ascending (the vectorizer emits them sorted).
type SparseBuilder struct {
	cols   int
	rowPtr []int
	col    []int32
	val    []float64
}

// NewSparseBuilder starts a builder for matrices with the given column
// count. rowsHint/nnzHint presize the backing slices (0 is fine).
func NewSparseBuilder(cols, rowsHint, nnzHint int) *SparseBuilder {
	b := &SparseBuilder{cols: cols}
	b.rowPtr = make([]int, 1, rowsHint+1)
	b.col = make([]int32, 0, nnzHint)
	b.val = make([]float64, 0, nnzHint)
	return b
}

// AppendRow adds the next row. cols must be strictly ascending and in
// range; vals must be the same length.
func (b *SparseBuilder) AppendRow(cols []int32, vals []float64) {
	if len(cols) != len(vals) {
		panic("matrix: AppendRow cols/vals length mismatch")
	}
	prev := int32(-1)
	for _, c := range cols {
		if c <= prev || int(c) >= b.cols {
			panic(fmt.Sprintf("matrix: AppendRow column %d out of order or range (cols=%d)", c, b.cols))
		}
		prev = c
	}
	b.col = append(b.col, cols...)
	b.val = append(b.val, vals...)
	b.rowPtr = append(b.rowPtr, len(b.col))
}

// Build finalizes the matrix. The builder must not be reused.
func (b *SparseBuilder) Build() *Sparse {
	return &Sparse{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		RowPtr: b.rowPtr,
		Col:    b.col,
		Val:    b.val,
	}
}

// RowCheck checks rows [lo, hi) of CSR arrays whose shape NewSparseCSR
// has accepted: each row's pointers are monotone and inside the column
// array, and its columns strictly ascending and in range. It returns the
// first row that breaks the rule with its error, or hi and nil. A row's
// check reads only that row, so disjoint ranges may run concurrently.
type RowCheck func(lo, hi int) (int, error)

// NewSparseCSR adopts pre-built CSR arrays without copying them — the
// zero-copy entry used by the tracebin decoder, whose column sections
// already hold exactly this layout. The arrays are validated (monotone
// row pointers covering all of col/val, strictly ascending in-range
// columns per row) so that adopted data upholds the same invariants
// SparseBuilder enforces; the caller keeps ownership of the slices and
// must not mutate them afterwards.
//
// The shape is checked here; the per-row rule is the RowCheck handed to
// checkRows, which must run it over ranges covering [0, rows) and
// return the error a row-order scan meets first. A caller runs it
// chunk-parallel this way, and checks more of each row (its values)
// once the RowCheck has cleared the row's pointers.
func NewSparseCSR(rows, cols int, rowPtr []int, col []int32, val []float64, checkRows func(RowCheck) error) (*Sparse, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: NewSparseCSR(%d, %d)", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("matrix: NewSparseCSR row pointers: %d entries, want %d", len(rowPtr), rows+1)
	}
	if len(col) != len(val) {
		return nil, fmt.Errorf("matrix: NewSparseCSR col/val length mismatch (%d != %d)", len(col), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != len(col) {
		return nil, fmt.Errorf("matrix: NewSparseCSR row pointers span [%d, %d], want [0, %d]",
			rowPtr[0], rowPtr[rows], len(col))
	}
	check := func(lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			a, b := rowPtr[i], rowPtr[i+1]
			// a < 0 fails an earlier row first in a row-order scan; it is
			// checked here so a range starting past that row stays in bounds.
			if a < 0 || a > b || b > len(col) {
				return i, fmt.Errorf("matrix: NewSparseCSR row %d pointers not monotone (%d > %d)", i, a, b)
			}
			prev := int32(-1)
			for _, c := range col[a:b] {
				if c <= prev || int(c) >= cols {
					return i, fmt.Errorf("matrix: NewSparseCSR row %d column %d out of order or range (cols=%d)", i, c, cols)
				}
				prev = c
			}
		}
		return hi, nil
	}
	if err := checkRows(check); err != nil {
		return nil, err
	}
	return &Sparse{rows: rows, cols: cols, RowPtr: rowPtr, Col: col, Val: val}, nil
}

// ColMap inverts a projected column list: the result maps every
// full-space column to its projected dimension, or -1 when the column is
// not selected. It panics on an out-of-range column, matching
// GatherColumnsDense.
func (s *Sparse) ColMap(cols []int) []int32 {
	colMap := make([]int32, s.cols)
	for i := range colMap {
		colMap[i] = -1
	}
	for j, c := range cols {
		if c < 0 || c >= s.cols {
			panic(fmt.Sprintf("matrix: ColMap column %d out of range (cols=%d)", c, s.cols))
		}
		colMap[c] = int32(j)
	}
	return colMap
}

// GatherColumnsInto projects rows [lo, hi) onto the dimensions selected
// by colMap (built with ColMap), writing into the matching rows of out.
// Each call touches only its own row range of out, so disjoint ranges
// may run concurrently — the parallel projection in phase formation
// drives this over a fixed chunk grid and the result is bit-for-bit the
// serial GatherColumnsDense (each cell is written by exactly one copy,
// no reductions are involved).
func (s *Sparse) GatherColumnsInto(out *Dense, colMap []int32, lo, hi int) {
	if out.rows != s.rows {
		panic(fmt.Sprintf("matrix: GatherColumnsInto rows %d != %d", out.rows, s.rows))
	}
	for i := lo; i < hi; i++ {
		cs, vs := s.Row(i)
		row := out.Row(i)
		for k, c := range cs {
			if j := colMap[c]; j >= 0 {
				row[j] = vs[k]
			}
		}
	}
}

// GatherColumnsDense projects the matrix onto the given columns: the
// result is a dense Rows()×len(cols) matrix with out[i][j] =
// s[i][cols[j]]. Columns absent from a row read as 0. This is the
// feature-space projection of phase formation: it touches only stored
// nonzeros, never materializing the full method space.
func (s *Sparse) GatherColumnsDense(cols []int) *Dense {
	out := NewDense(s.rows, len(cols))
	if len(cols) == 0 {
		return out
	}
	s.GatherColumnsInto(out, s.ColMap(cols), 0, s.rows)
	return out
}
