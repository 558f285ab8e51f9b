package cluster

import (
	"math"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
)

// tableChunk is the fixed grid of the distinct-row table's point loops.
// Like pointChunk it depends on nothing but the input size, so the row
// ids come out the same for every worker count; it is larger than
// pointChunk because each chunk pays for a private hash table.
const tableChunk = 4096

// rowTable is the distinct-row view of one clustering problem. Phase
// formation's features are method-frequency counts over a unit's few
// stack snapshots, so the same vector recurs throughout a long trace:
// the kernels compute everything that is a pure function of one point's
// vector once per distinct row and read it back through rowOf, while
// every reduction over points still runs over the points in order
// (DESIGN.md §12, "Distinct-row memoization").
//
// Rows are told apart by the bits of their float64 coordinates, so −0
// and +0 are different rows and a NaN bit pattern is equal to itself:
// two points share a row only when every kernel is bound to compute the
// same bits for them.
type rowTable struct {
	rows     *matrix.Dense // U×d distinct rows, in first-occurrence order
	rowOf    []int32       // point → row id
	pn2, pnr []float64     // row → squared norm, norm
}

// points is the number of points n; distinct the number of rows U ≤ n.
func (t *rowTable) points() int   { return len(t.rowOf) }
func (t *rowTable) distinct() int { return t.rows.Rows() }

// pointAssign expands a per-row assignment to the points.
func (t *rowTable) pointAssign(eng *parallel.Engine, rowAssign []int) []int {
	out := make([]int, len(t.rowOf))
	eng.ForEachChunk(len(out), tableChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = rowAssign[t.rowOf[i]]
		}
	})
	return out
}

// rowSet is an open-addressing set of the rows of a point matrix, ids
// in insertion order.
type rowSet struct {
	slots []int32 // row id + 1; 0 = empty
	mask  uint64
	first []int32  // row id → the first point holding the row
	hash  []uint64 // row id → the row's hash
}

// newRowSet returns a set with room for m rows: a power of two at least
// 2m slots, so probes stay short and a free slot always exists.
func newRowSet(m int) *rowSet {
	size := 2
	for size < 2*m {
		size <<= 1
	}
	return &rowSet{slots: make([]int32, size), mask: uint64(size - 1)}
}

// insert returns the id of point i's row (data is the n×d point matrix,
// h the row's hash), adding the row if it is new.
func (s *rowSet) insert(data []float64, d int, i int32, h uint64) int32 {
	p := data[int(i)*d : int(i)*d+d]
	for k := h & s.mask; ; k = (k + 1) & s.mask {
		id := s.slots[k] - 1
		if id < 0 {
			id = int32(len(s.first))
			s.slots[k] = id + 1
			s.first = append(s.first, i)
			s.hash = append(s.hash, h)
			return id
		}
		if f := int(s.first[id]); s.hash[id] == h && sameBits(data[f*d:f*d+d], p) {
			return id
		}
	}
}

// newRowTable builds the distinct-row table of pts. Each chunk of the
// fixed grid dedups its points into a private, presized rowSet; the
// chunks' rows then merge into one set in chunk order, so ids are
// assigned in first-occurrence order whatever the worker count. On a
// canceled engine it returns nil; the caller checks eng.Err.
func newRowTable(eng *parallel.Engine, pts *matrix.Dense) *rowTable {
	n, d := pts.Rows(), pts.Cols()
	data := pts.Data()
	rowOf := make([]int32, n)
	local := make([]*rowSet, parallel.Chunks(n, tableChunk))
	eng.ForEachChunk(n, tableChunk, func(c, lo, hi int) {
		set := newRowSet(hi - lo)
		for i := lo; i < hi; i++ {
			rowOf[i] = set.insert(data, d, int32(i), hashRow(data[i*d:i*d+d]))
		}
		set.slots = nil
		local[c] = set
	})
	if eng.Err() != nil {
		return nil
	}
	total := 0
	for _, set := range local {
		total += len(set.first)
	}
	all := newRowSet(total)
	all.first, all.hash = make([]int32, 0, total), make([]uint64, 0, total)
	for _, set := range local {
		// Each chunk's first-point list becomes its local → global id map.
		for j, f := range set.first {
			set.first[j] = all.insert(data, d, f, set.hash[j])
		}
	}
	eng.ForEachChunk(n, tableChunk, func(c, lo, hi int) {
		ids := local[c].first
		for i := lo; i < hi; i++ {
			rowOf[i] = ids[rowOf[i]]
		}
	})
	if eng.Err() != nil {
		return nil
	}
	// When every row is distinct, first-occurrence order is pts itself.
	rows := pts
	if len(all.first) < n {
		rows = matrix.NewDense(len(all.first), d)
		for r, f := range all.first {
			copy(rows.Row(r), data[int(f)*d:int(f)*d+d])
		}
	}
	pn2 := rows.RowNorms2(nil)
	pnr := make([]float64, len(pn2))
	for r, v := range pn2 {
		pnr[r] = math.Sqrt(v)
	}
	return &rowTable{rows: rows, rowOf: rowOf, pn2: pn2, pnr: pnr}
}

// hashRow hashes the bit patterns of a row's coordinates.
func hashRow(p []float64) uint64 {
	h := uint64(len(p))
	for _, v := range p {
		h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	// Murmur3's finalizer: the low bits index the table.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// sameBits reports whether two rows hold identical float64 bit patterns.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}
