package phase_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"simprof/internal/matrix"
	"simprof/internal/model"
	"simprof/internal/phase"
	"simprof/internal/sensitivity"
	"simprof/internal/synth"
	"simprof/internal/trace"
	"simprof/internal/tracebin"
)

// oracleCounts is the reference method count: per unit, a plain map
// from FQN to the number of snapshot stack frames naming it, read out in
// the dimension order of space. Ids that share one FQN land in the same
// map entry; frames outside the method table are not counted. Trace.
// CountMethods, VectorizeSparse's remap and the tracebin frequency
// sections are all pinned against it.
func oracleCounts(space []string, tr *trace.Trace) [][]float64 {
	out := make([][]float64, len(tr.Units))
	for u := range tr.Units {
		byFQN := map[string]float64{}
		snaps := tr.Snapshots(u)
		for j := 0; j < snaps.Len(); j++ {
			for _, id := range snaps.At(j) {
				if id >= 0 && int(id) < len(tr.Methods) {
					byFQN[tr.Methods[id].FQN()]++
				}
			}
		}
		row := make([]float64, len(space))
		for j, fqn := range space {
			row[j] = byFQN[fqn]
		}
		out[u] = row
	}
	return out
}

// tableSpace lists the trace's method FQNs in id order.
func tableSpace(tr *trace.Trace) []string {
	out := make([]string, len(tr.Methods))
	for i, m := range tr.Methods {
		out[i] = m.FQN()
	}
	return out
}

// denseRows expands a CSR matrix, checking on the way that every row
// stores strictly ascending columns and no zero cell.
func denseRows(t *testing.T, sp *matrix.Sparse) [][]float64 {
	t.Helper()
	out := make([][]float64, sp.Rows())
	for i := range out {
		out[i] = make([]float64, sp.Cols())
		cols, vals := sp.Row(i)
		for k, j := range cols {
			if k > 0 && j <= cols[k-1] {
				t.Fatalf("row %d: columns %v not strictly ascending", i, cols)
			}
			if vals[k] == 0 {
				t.Fatalf("row %d: stored zero at column %d", i, j)
			}
			out[i][j] = vals[k]
		}
	}
	return out
}

// genTrace generates a synthetic trace with a 64-method table.
func genTrace(t *testing.T, units int, seed uint64) *trace.Trace {
	t.Helper()
	spec := synth.DefaultTrace(units, seed)
	spec.Methods = 64
	spec.Snapshots = 5
	spec.Phases = min(spec.Phases, units)
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// reinterned returns a copy of tr whose method table lists the methods in
// reverse order, with every snapshot frame renumbered to match: the same
// run as another profiler invocation might intern it.
func reinterned(tr *trace.Trace) *trace.Trace {
	out := *tr
	m := len(tr.Methods)
	out.Methods = make([]model.Method, m)
	for i, mm := range tr.Methods {
		mm.ID = model.MethodID(m - 1 - i)
		out.Methods[mm.ID] = mm
	}
	out.Units = slices.Clone(tr.Units)
	out.Frames = make([]model.MethodID, len(tr.Frames))
	for f, id := range tr.Frames {
		out.Frames[f] = model.MethodID(m-1) - id
	}
	out.SetFreq(nil)
	return &out
}

// sharedFQNTrace is a hand-built trace whose method table interns
// "B.sort" twice (ids 2 and 3) and whose last unit names an id outside
// the table — shapes Validate rejects but the counts must still handle.
func sharedFQNTrace() *trace.Trace {
	tbl := model.NewTable()
	root := tbl.Intern("java.lang.Thread", "run", model.KindFramework)
	a := tbl.Intern("A", "map", model.KindMap)
	b := tbl.Intern("B", "sort", model.KindSort)
	methods := append(tbl.Methods(), model.Method{ID: b + 1, Class: "B", Name: "sort", Kind: model.KindSort})
	b2 := b + 1
	tr := &trace.Trace{Methods: methods}
	for _, stacks := range [][]model.Stack{
		{{root, a}, {root, b}, {root, b2}},
		{{root, b2, b2}, {root, a, a}},
		{{root, b}, {root, b}},
		{},
		{{root, 42}, {root, a}},
	} {
		u := trace.Unit{ID: len(tr.Units), Counters: trace.Counters{Instructions: 1000, Cycles: 2000}}
		for _, st := range stacks {
			tr.AppendSnapshot(&u, st)
		}
		tr.Units = append(tr.Units, u)
	}
	return tr
}

// TestCountMethodsMatchesOracle pins Trace.CountMethods against the
// map-count oracle over the full method table: same cells, ascending
// columns, no stored zeros, and a fresh count even when a decoder has
// attached a frequency matrix.
func TestCountMethodsMatchesOracle(t *testing.T) {
	for _, tr := range []*trace.Trace{genTrace(t, 1, 1), genTrace(t, 37, 2), genTrace(t, 400, 3)} {
		got := tr.CountMethods()
		if got.Rows() != len(tr.Units) || got.Cols() != len(tr.Methods) {
			t.Fatalf("dims %dx%d, want %dx%d", got.Rows(), got.Cols(), len(tr.Units), len(tr.Methods))
		}
		if want := oracleCounts(tableSpace(tr), tr); !reflect.DeepEqual(denseRows(t, got), want) {
			t.Fatalf("%d units: CountMethods differs from the oracle", len(tr.Units))
		}
	}
	// Ids outside the table are dropped; ids sharing an FQN keep their
	// own columns.
	tr := sharedFQNTrace()
	want := [][]float64{
		{3, 1, 1, 1},
		{2, 2, 0, 2},
		{2, 0, 2, 0},
		{0, 0, 0, 0},
		{2, 1, 0, 0},
	}
	if got := denseRows(t, tr.CountMethods()); !reflect.DeepEqual(got, want) {
		t.Fatalf("shared-FQN counts %v, want %v", got, want)
	}
	// A decoder-attached matrix is never what CountMethods returns.
	bin, err := tracebin.Marshal(genTrace(t, 50, 4))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tracebin.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	dec.SetFreq(matrix.NewSparseBuilder(len(dec.Methods), 0, 0).Build())
	if got := dec.CountMethods(); got == dec.Freq() || got.Rows() != len(dec.Units) {
		t.Fatalf("CountMethods returned the attached matrix")
	}
}

// TestVectorizeSparseMatchesDense pins VectorizeSparse against the
// oracle on the full method space: in id order (the counts as they are),
// in reverse order, and on a reference trace that interns the methods in
// reverse.
func TestVectorizeSparseMatchesDense(t *testing.T) {
	tr := genTrace(t, 200, 5)
	full := tableSpace(tr)
	reversed := slices.Clone(full)
	slices.Reverse(reversed)
	for _, tc := range []struct {
		name  string
		space []string
		tr    *trace.Trace
	}{
		{"identity", full, tr},
		{"reversed-space", reversed, tr},
		{"reinterned-trace", full, reinterned(tr)},
	} {
		sp := (&phase.FeatureSpace{Methods: tc.space}).VectorizeSparse(tc.tr)
		if sp.Rows() != len(tc.tr.Units) || sp.Cols() != len(tc.space) {
			t.Fatalf("%s: dims %dx%d, want %dx%d", tc.name, sp.Rows(), sp.Cols(), len(tc.tr.Units), len(tc.space))
		}
		if !reflect.DeepEqual(denseRows(t, sp), oracleCounts(tc.space, tc.tr)) {
			t.Fatalf("%s: VectorizeSparse differs from the oracle", tc.name)
		}
		if sp.NNZ() >= sp.Rows()*sp.Cols() {
			t.Fatalf("%s: vectorization is not sparse: nnz=%d of %d cells", tc.name, sp.NNZ(), sp.Rows()*sp.Cols())
		}
	}
}

// TestVectorizeSparseSubsetSpace pins a feature space that omits some
// of the trace's methods, names one the trace lacks, and lists an FQN
// two method ids share: those ids' counts must sum onto its dimension.
func TestVectorizeSparseSubsetSpace(t *testing.T) {
	tr := sharedFQNTrace()
	space := []string{"B.sort", "C.absent", "A.map"}
	got := denseRows(t, (&phase.FeatureSpace{Methods: space}).VectorizeSparse(tr))
	want := oracleCounts(space, tr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subset space: %v, oracle %v", got, want)
	}
	if want[0][0] != 2 || want[1][0] != 2 {
		t.Fatalf("oracle does not sum the shared FQN: %v", want)
	}
	// The same on a generated trace, every third method kept.
	gen := genTrace(t, 100, 6)
	var sub []string
	for i, fqn := range tableSpace(gen) {
		if i%3 == 0 {
			sub = append(sub, fqn)
		}
	}
	if got := denseRows(t, (&phase.FeatureSpace{Methods: sub}).VectorizeSparse(gen)); !reflect.DeepEqual(got, oracleCounts(sub, gen)) {
		t.Fatal("every-third subspace differs from the oracle")
	}
}

// TestVectorizeSparseAdoptsDecodedFreq pins the freq fast path: on the
// identity map VectorizeSparse returns the decoder-attached matrix
// itself, which equals the oracle; an attached matrix of the wrong
// shape, or a table whose FQNs repeat, is counted afresh instead.
func TestVectorizeSparseAdoptsDecodedFreq(t *testing.T) {
	tr := genTrace(t, 120, 7)
	bin, err := tracebin.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tracebin.Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	full := tableSpace(dec)
	sp := (&phase.FeatureSpace{Methods: full}).VectorizeSparse(dec)
	if sp != dec.Freq() {
		t.Fatal("identity map did not adopt the decoded frequency matrix")
	}
	if !reflect.DeepEqual(denseRows(t, sp), oracleCounts(full, tr)) {
		t.Fatal("adopted matrix differs from the oracle")
	}
	dec.SetFreq(matrix.NewSparseBuilder(len(dec.Methods), 0, 0).Build())
	if sp := (&phase.FeatureSpace{Methods: full}).VectorizeSparse(dec); sp == dec.Freq() ||
		!reflect.DeepEqual(denseRows(t, sp), oracleCounts(full, tr)) {
		t.Fatal("a wrong-shape attached matrix was adopted")
	}
	shared := sharedFQNTrace()
	shared.SetFreq(shared.CountMethods())
	if sp := (&phase.FeatureSpace{Methods: tableSpace(shared)}).VectorizeSparse(shared); sp == shared.Freq() {
		t.Fatal("a table with a repeated FQN adopted the id-keyed matrix")
	}
}

// TestClassifyMatchesOracle pins sensitivity.Classify against the oracle
// vectors in the training space and a plain strict-< nearest-center
// scan, for reference traces interned in the training order and in
// reverse, at GOMAXPROCS 1, 2 and 8.
func TestClassifyMatchesOracle(t *testing.T) {
	train := genTrace(t, 400, 7)
	ph, err := phase.Form(train, phase.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K < 2 {
		t.Fatalf("training formed K=%d; the pin needs several centers", ph.K)
	}
	ref := genTrace(t, 1500, 8)
	for name, r := range map[string]*trace.Trace{"training-order": ref, "reinterned": reinterned(ref)} {
		vecs := oracleCounts(ph.Space.Methods, r)
		want := make([]int, len(vecs))
		for i, v := range vecs {
			best, bestD := -1, 0.0
			for c, center := range ph.Centers {
				var d float64
				for j := range v {
					diff := v[j] - center[j]
					d += diff * diff
				}
				if best < 0 || d < bestD {
					best, bestD = c, d
				}
			}
			want[i] = best
		}
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if got := sensitivity.Classify(ph, r); !reflect.DeepEqual(got, want) {
					t.Fatal("Classify differs from the oracle scan")
				}
			})
		}
	}
}
