package phase

import (
	"fmt"
	"reflect"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/trace"
)

// allColumns lists every column of sp, so projecting onto it densifies.
func allColumns(sp *matrix.Sparse) []int {
	cols := make([]int, sp.Cols())
	for j := range cols {
		cols[j] = j
	}
	return cols
}

// TestVectorizeSparseMatchesDense pins the CSR vectorization against the
// dense one cell for cell: same counts, everything else exactly zero.
func TestVectorizeSparseMatchesDense(t *testing.T) {
	tr := synthTrace(40, 3)
	fs := fullSpace(tr)
	dense := fs.vectorizeWith(parallel.New(1), tr)
	sp := fs.VectorizeSparse(tr)
	if sp.Rows() != len(dense) || sp.Cols() != fs.Dim() {
		t.Fatalf("dims %dx%d, want %dx%d", sp.Rows(), sp.Cols(), len(dense), fs.Dim())
	}
	back := sp.GatherColumnsDense(allColumns(sp))
	for i, row := range dense {
		if !reflect.DeepEqual(back.Row(i), row) {
			t.Fatalf("unit %d: sparse %v dense %v", i, back.Row(i), row)
		}
	}
	if sp.NNZ() >= sp.Rows()*sp.Cols() {
		t.Fatalf("vectorization is not sparse: nnz=%d of %d cells",
			sp.NNZ(), sp.Rows()*sp.Cols())
	}
}

// TestVectorizeSparseSubsetSpace exercises a feature space that omits
// some of the trace's methods (the sensitivity path vectorizes reference
// traces in the training space).
func TestVectorizeSparseSubsetSpace(t *testing.T) {
	tr := synthTrace(10, 5)
	full := fullSpace(tr)
	sub := &FeatureSpace{
		Methods: full.Methods[:1],
		Kinds:   full.Kinds[:1],
	}
	dense := sub.vectorizeWith(parallel.New(1), tr)
	sp := sub.VectorizeSparse(tr)
	back := sp.GatherColumnsDense(allColumns(sp))
	for i, row := range dense {
		if !reflect.DeepEqual(back.Row(i), row) {
			t.Fatalf("unit %d: %v vs %v", i, back.Row(i), row)
		}
	}
}

// TestPhaseIndexAccessors pins the cached per-phase index lists against
// full scans of the assignment, including out-of-range phases (no
// units) and a post-formation quality change.
func TestPhaseIndexAccessors(t *testing.T) {
	tr := synthTrace(30, 9)
	p, err := Form(tr, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Degrade a few units after formation: measured status must follow.
	for i := 0; i < len(tr.Units); i += 7 {
		tr.Units[i].Quality |= trace.CountersMissing
	}
	// Compare through fmt.Sprint, which prints floats exactly and nil
	// like empty: an out-of-range phase has no units either way.
	same := func(got, want any) bool { return fmt.Sprint(got) == fmt.Sprint(want) }
	sizes, measuredSizes := make([]int, p.K+2), make([]int, p.K+2)
	for h := -1; h <= p.K; h++ {
		var units, measured []int
		var cpis []float64
		for i, a := range p.Assign {
			if a == h {
				units = append(units, i)
				if p.UnitMeasured(i) {
					measured = append(measured, i)
					cpis = append(cpis, tr.Units[i].CPI())
				}
			}
		}
		sizes[h+1], measuredSizes[h+1] = len(units), len(measured)
		if got := p.PhaseUnits(h); !same(got, units) {
			t.Fatalf("PhaseUnits(%d): %v, scan %v", h, got, units)
		}
		if got := p.PhaseCPIs(h); !same(got, cpis) {
			t.Fatalf("PhaseCPIs(%d): %v, scan %v", h, got, cpis)
		}
	}
	if got := p.Sizes(); !same(got, sizes[1:p.K+1]) {
		t.Fatalf("Sizes: %v, scan %v", got, sizes[1:p.K+1])
	}
	if got := p.MeasuredSizes(); !same(got, measuredSizes[1:p.K+1]) {
		t.Fatalf("MeasuredSizes: %v, scan %v", got, measuredSizes[1:p.K+1])
	}
	// The cached lists must be insulated from caller mutation.
	u := p.PhaseUnits(0)
	if len(u) > 0 {
		u[0] = -999
		if p.PhaseUnits(0)[0] == -999 {
			t.Fatal("PhaseUnits exposed the internal cache")
		}
	}
}
