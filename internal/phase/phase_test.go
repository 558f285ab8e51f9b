package phase

import (
	"fmt"
	"reflect"
	"testing"

	"simprof/internal/model"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// synthTrace builds a trace with nPerPhase units for each behaviour:
// phase a (method "A.map", CPI≈1), phase b (method "B.sort", CPI≈3).
// Units carry 10 snapshots each.
func synthTrace(nPerPhase int, seed uint64) *trace.Trace {
	tbl := model.NewTable()
	root := tbl.Intern("java.lang.Thread", "run", model.KindFramework)
	a := tbl.Intern("A", "map", model.KindMap)
	b := tbl.Intern("B", "sort", model.KindSort)
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{
		Benchmark: "synth", Framework: "spark", UnitInstr: 100, SnapshotEvery: 10,
		Methods: tbl.Methods(),
	}
	add := func(m model.MethodID, cpi float64) {
		u := trace.Unit{ID: len(tr.Units)}
		for s := 0; s < 10; s++ {
			tr.AppendSnapshot(&u, model.Stack{root, m})
		}
		u.Counters = trace.Counters{Instructions: 1000, Cycles: uint64(1000 * cpi)}
		tr.Units = append(tr.Units, u)
	}
	for i := 0; i < nPerPhase; i++ {
		add(a, 1.0+0.05*rng.Float64())
		add(b, 3.0+0.15*rng.Float64())
	}
	return tr
}

func TestFormRecoversTwoPhases(t *testing.T) {
	tr := synthTrace(50, 1)
	ph, err := Form(tr, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 2 {
		t.Fatalf("K=%d want 2 (scores=%v)", ph.K, ph.KScores)
	}
	// Units alternate a,b — assignments must alternate too.
	for i := 2; i < len(ph.Assign); i++ {
		if ph.Assign[i] != ph.Assign[i-2] {
			t.Fatalf("unit %d phase %d != unit %d phase %d", i, ph.Assign[i], i-2, ph.Assign[i-2])
		}
	}
	if ph.Assign[0] == ph.Assign[1] {
		t.Fatal("distinct behaviours clustered together")
	}
	if len(ph.Vectors) != len(tr.Units) {
		t.Fatal("vector count mismatch")
	}
}

func TestFormEmptyTrace(t *testing.T) {
	if _, err := Form(&trace.Trace{}, Options{}); err == nil {
		t.Fatal("empty trace should fail")
	}
}

func TestWeightsAndSizes(t *testing.T) {
	tr := synthTrace(40, 2)
	ph, _ := Form(tr, Options{Seed: 1})
	sizes := ph.Sizes()
	weights := ph.Weights()
	totalW := 0.0
	totalS := 0
	for h := 0; h < ph.K; h++ {
		totalW += weights[h]
		totalS += sizes[h]
	}
	if totalS != len(tr.Units) {
		t.Fatalf("sizes sum %d", totalS)
	}
	if totalW < 0.999 || totalW > 1.001 {
		t.Fatalf("weights sum %v", totalW)
	}
	if len(ph.PhaseUnits(0)) != sizes[0] {
		t.Fatal("PhaseUnits inconsistent with Sizes")
	}
}

func TestCoVWeightedBelowPopulation(t *testing.T) {
	// Two well-separated CPI groups: population CoV high, within-phase
	// CoV low — the Fig. 6 property.
	tr := synthTrace(60, 4)
	ph, _ := Form(tr, Options{Seed: 1})
	rep := ph.CoV()
	if rep.Weighted >= rep.Population {
		t.Fatalf("weighted CoV %v not below population %v", rep.Weighted, rep.Population)
	}
	if rep.Max < rep.Weighted {
		t.Fatalf("max CoV %v below weighted %v", rep.Max, rep.Weighted)
	}
	if rep.Population < 0.3 {
		t.Fatalf("population CoV %v suspiciously low", rep.Population)
	}
	if rep.Weighted > 0.1 {
		t.Fatalf("weighted CoV %v suspiciously high", rep.Weighted)
	}
}

func TestDominantKindAndMethods(t *testing.T) {
	tr := synthTrace(30, 5)
	ph, _ := Form(tr, Options{Seed: 1})
	dist := ph.TypeDistribution()
	if w := dist[model.KindMap] + dist[model.KindSort]; w < 0.99 {
		t.Fatalf("map+sort weight %v want ≈1 (dist=%v)", w, dist)
	}
	// Each phase's dominant method must be A.map or B.sort, matching
	// its kind.
	for h := 0; h < ph.K; h++ {
		top := ph.DominantMethods(h, 1)
		if len(top) != 1 {
			t.Fatalf("phase %d no dominant method", h)
		}
		kind := ph.DominantKind(h)
		switch top[0] {
		case "A.map":
			if kind != model.KindMap {
				t.Fatalf("phase %d kind %v with dominant A.map", h, kind)
			}
		case "B.sort":
			if kind != model.KindSort {
				t.Fatalf("phase %d kind %v with dominant B.sort", h, kind)
			}
		default:
			t.Fatalf("unexpected dominant method %q", top[0])
		}
	}
}

func TestFeatureSelectionDropsConstantFrames(t *testing.T) {
	// The framework root frame appears in every snapshot; its
	// regression score is 0, so with TopK=1 only the discriminating
	// method survives... but TopK=1 keeps a single dim; verify root
	// scores below user methods instead.
	tr := synthTrace(30, 6)
	ph, err := Form(tr, Options{Seed: 1, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ph.Space.Methods {
		if m == "java.lang.Thread.run" {
			t.Fatal("constant frame ranked in top-2 features")
		}
	}
}

func TestVectorizeByFQNAcrossTables(t *testing.T) {
	// A reference trace whose table interns methods in reverse order
	// must still vectorize correctly in the training space.
	train := synthTrace(10, 7)
	ph, _ := Form(train, Options{Seed: 1})

	tbl := model.NewTable()
	b := tbl.Intern("B", "sort", model.KindSort) // reversed order vs training
	root := tbl.Intern("java.lang.Thread", "run", model.KindFramework)
	ref := &trace.Trace{Methods: tbl.Methods()}
	u := trace.Unit{ID: 0, Counters: trace.Counters{Instructions: 1000, Cycles: 3000}}
	for s := 0; s < 10; s++ {
		ref.AppendSnapshot(&u, model.Stack{root, b})
	}
	ref.Units = append(ref.Units, u)

	sp := ph.Space.VectorizeSparse(ref)
	if sp.Rows() != 1 || sp.Cols() != ph.Space.Dim() {
		t.Fatalf("vectorized %dx%d, want 1x%d", sp.Rows(), sp.Cols(), ph.Space.Dim())
	}
	row := make([]float64, sp.Cols())
	cols, vals := sp.Row(0)
	for k, j := range cols {
		row[j] = vals[k]
	}
	// The B.sort dimension must hold all 10 counts.
	found := false
	for j, name := range ph.Space.Methods {
		if name == "B.sort" {
			if row[j] != 10 {
				t.Fatalf("B.sort count=%v want 10", row[j])
			}
			found = true
		} else if name == "A.map" && row[j] != 0 {
			t.Fatalf("A.map count=%v want 0", row[j])
		}
	}
	if !found {
		t.Fatal("B.sort not a training feature")
	}
}

// TestMaxPhasesOneFormsOnePhase: MaxPhases bounds the k sweep from
// above, so a bound of 1 forms one phase even on a trace with several.
func TestMaxPhasesOneFormsOnePhase(t *testing.T) {
	tr, err := synth.DefaultTrace(400, 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Form(tr, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K < 2 {
		t.Fatalf("unbounded formation formed K=%d; the trace should split", ph.K)
	}
	ph, err = Form(tr, Options{Seed: 5, MaxPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 1 || len(ph.Centers) != 1 || ph.Sizes()[0] != len(tr.Units) {
		t.Fatalf("MaxPhases 1 formed K=%d (sizes %v)", ph.K, ph.Sizes())
	}
}

// TestMaxIterIgnored pins the deprecated Options.MaxIter as inert: k-means
// runs one Lloyd update whatever the field says, so every setting forms
// the phases the zero value forms.
func TestMaxIterIgnored(t *testing.T) {
	tr, err := synth.DefaultTrace(400, 3).Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Form(tr, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{0, 1, 25, 1000} {
		got, err := Form(tr, Options{Seed: 5, MaxIter: m})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxIter %d formed K=%d (sizes %v), the zero value K=%d (sizes %v)",
				m, got.K, got.Sizes(), want.K, want.Sizes())
		}
	}
}

func TestSinglePhaseTrace(t *testing.T) {
	// All units identical → one phase (grep_sp behaviour).
	tbl := model.NewTable()
	root := tbl.Intern("T", "run", model.KindFramework)
	m := tbl.Intern("G", "filter", model.KindMap)
	tr := &trace.Trace{Methods: tbl.Methods()}
	for i := 0; i < 50; i++ {
		u := trace.Unit{ID: i, Counters: trace.Counters{Instructions: 1000, Cycles: 1500}}
		for s := 0; s < 10; s++ {
			tr.AppendSnapshot(&u, model.Stack{root, m})
		}
		tr.Units = append(tr.Units, u)
	}
	ph, err := Form(tr, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 1 {
		t.Fatalf("identical units K=%d want 1", ph.K)
	}
}

func TestFormSurvivesDegenerateUnits(t *testing.T) {
	// Units with no snapshots vectorize to zero; units with unknown
	// method ids are ignored; the pipeline must not panic and must
	// produce a usable (single-phase) clustering.
	tbl := model.NewTable()
	m := tbl.Intern("A", "op", model.KindMap)
	tr := &trace.Trace{Methods: tbl.Methods()}
	for i := 0; i < 40; i++ {
		u := trace.Unit{ID: i, Counters: trace.Counters{Instructions: 100, Cycles: 150}}
		if i%2 == 0 {
			tr.AppendSnapshot(&u, model.Stack{m})
		} // odd units: no snapshots at all
		tr.Units = append(tr.Units, u)
	}
	ph, err := Form(tr, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K < 1 || ph.K > 2 {
		t.Fatalf("K=%d", ph.K)
	}
	if len(ph.Assign) != 40 {
		t.Fatal("assignment truncated")
	}
}

func TestFormConstantIPC(t *testing.T) {
	// All units identical CPI → every regression score is 0 → TopK
	// still returns dims and clustering still works.
	tbl := model.NewTable()
	a := tbl.Intern("A", "x", model.KindMap)
	b := tbl.Intern("B", "y", model.KindSort)
	tr := &trace.Trace{Methods: tbl.Methods()}
	for i := 0; i < 60; i++ {
		u := trace.Unit{ID: i, Counters: trace.Counters{Instructions: 100, Cycles: 200}}
		if i%2 == 0 {
			tr.AppendSnapshot(&u, model.Stack{a})
			tr.AppendSnapshot(&u, model.Stack{a})
		} else {
			tr.AppendSnapshot(&u, model.Stack{b})
			tr.AppendSnapshot(&u, model.Stack{b})
		}
		tr.Units = append(tr.Units, u)
	}
	ph, err := Form(tr, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Identical performance but distinct code: formation may merge or
	// split; either way the result must be internally consistent.
	if got := len(ph.PhaseUnits(0)); got == 0 {
		t.Fatal("empty phase 0")
	}
	rep := ph.CoV()
	if rep.Population != 0 {
		t.Fatalf("population CoV=%v want 0", rep.Population)
	}
}

func TestDominantMethodsOutOfRange(t *testing.T) {
	tr := synthTrace(10, 9)
	ph, _ := Form(tr, Options{Seed: 1})
	if ph.DominantMethods(-1, 3) != nil || ph.DominantMethods(99, 3) != nil {
		t.Fatal("out-of-range phase should return nil")
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
