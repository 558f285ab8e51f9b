package sensitivity

import (
	"testing"

	"simprof/internal/model"
	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// twoPhaseTrace builds a trace with a "scan" phase at scanCPI and an
// "agg" phase at aggCPI (with aggStd spread), 10 snapshots per unit.
func twoPhaseTrace(n int, scanCPI, aggCPI, aggStd float64, seed uint64) *trace.Trace {
	tbl := model.NewTable()
	root := tbl.Intern("T", "run", model.KindFramework)
	scan := tbl.Intern("S", "scan", model.KindMap)
	agg := tbl.Intern("A", "aggregate", model.KindReduce)
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{Input: "in", Methods: tbl.Methods()}
	add := func(m model.MethodID, cpi float64) {
		u := trace.Unit{ID: len(tr.Units)}
		for s := 0; s < 10; s++ {
			tr.AppendSnapshot(&u, model.Stack{root, m})
		}
		if cpi < 0.1 {
			cpi = 0.1
		}
		u.Counters = trace.Counters{Instructions: 1000, Cycles: uint64(1000 * cpi)}
		tr.Units = append(tr.Units, u)
	}
	for i := 0; i < n; i++ {
		add(scan, scanCPI+0.02*rng.NormFloat64())
		add(agg, aggCPI+aggStd*rng.NormFloat64())
	}
	return tr
}

func form(t *testing.T, tr *trace.Trace) *phase.Phases {
	t.Helper()
	ph, err := phase.Form(tr, phase.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 2 {
		t.Fatalf("expected 2 phases, got %d", ph.K)
	}
	return ph
}

func TestClassifyMapsUnitsToMatchingPhases(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	ref := twoPhaseTrace(30, 1.0, 2.5, 0.1, 2)
	assign := Classify(ph, ref)
	if len(assign) != len(ref.Units) {
		t.Fatal("assignment length mismatch")
	}
	// Alternating scan/agg units must map to alternating phases, and
	// a ref scan unit must share its phase with a train scan unit.
	if assign[0] == assign[1] {
		t.Fatal("distinct behaviours classified to one phase")
	}
	if assign[0] != ph.Assign[0] {
		t.Fatal("ref scan unit not in training scan phase")
	}
	for i := 2; i < len(assign); i++ {
		if assign[i] != assign[i-2] {
			t.Fatal("classification not consistent across identical units")
		}
	}
}

func TestInsensitiveWhenInputsMatch(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	refs := []*trace.Trace{
		twoPhaseTrace(200, 1.0, 2.5, 0.1, 7),
		twoPhaseTrace(200, 1.0, 2.5, 0.1, 8),
	}
	rep, err := Test(ph, refs, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sens, insens := rep.Counts()
	if sens != 0 || insens != 2 {
		t.Fatalf("identical inputs: sensitive=%d insensitive=%d", sens, insens)
	}
}

func TestSensitiveMeanShift(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	// Reference input shifts only the aggregate phase's mean by 40%.
	ref := twoPhaseTrace(200, 1.0, 3.5, 0.1, 9)
	rep, err := Test(ph, []*trace.Trace{ref}, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	sens, insens := rep.Counts()
	if sens != 1 || insens != 1 {
		t.Fatalf("sensitive=%d insensitive=%d want 1/1", sens, insens)
	}
	// The sensitive phase must be the aggregate one (unit 1's phase).
	aggPhase := ph.Assign[1]
	if !rep.Sensitive[aggPhase] {
		t.Fatal("aggregate phase not marked sensitive")
	}
}

func TestSensitiveStdShift(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	// Same means, but the aggregate phase becomes much noisier.
	ref := twoPhaseTrace(200, 1.0, 2.5, 0.5, 3)
	rep, err := Test(ph, []*trace.Trace{ref}, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	aggPhase := ph.Assign[1]
	if !rep.Sensitive[aggPhase] {
		t.Fatal("σ shift not detected (Eq. 6 second clause)")
	}
	scanPhase := ph.Assign[0]
	if rep.Sensitive[scanPhase] {
		t.Fatal("scan phase should stay insensitive")
	}
}

func TestAnyInputTriggers(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	refs := []*trace.Trace{
		twoPhaseTrace(200, 1.0, 2.5, 0.1, 4), // identical
		twoPhaseTrace(200, 1.0, 4.0, 0.1, 5), // shifted agg
	}
	rep, _ := Test(ph, refs, DefaultThreshold)
	aggPhase := ph.Assign[1]
	if !rep.Sensitive[aggPhase] {
		t.Fatal("one deviating input should mark the phase sensitive")
	}
	if !rep.Inputs[1].Sensitive[aggPhase] || rep.Inputs[0].Sensitive[aggPhase] {
		t.Fatal("per-input attribution wrong")
	}
}

func TestSensitivePointFraction(t *testing.T) {
	train := twoPhaseTrace(200, 1.0, 2.5, 0.1, 1)
	ph := form(t, train)
	ref := twoPhaseTrace(200, 1.0, 4.0, 0.1, 5)
	rep, _ := Test(ph, []*trace.Trace{ref}, DefaultThreshold)
	// Points: one in each phase → fraction 0.5.
	scanUnit := ph.Trace.Units[0].ID
	aggUnit := ph.Trace.Units[1].ID
	frac := rep.SensitivePointFraction(ph, []int{scanUnit, aggUnit})
	if frac != 0.5 {
		t.Fatalf("fraction=%v want 0.5", frac)
	}
	if rep.SensitivePointFraction(ph, nil) != 0 {
		t.Fatal("empty points should give 0")
	}
}

func TestTestErrors(t *testing.T) {
	if _, err := Test(&phase.Phases{}, nil, 0.1); err == nil {
		t.Fatal("no phases should fail")
	}
}

func TestPhaseSensitiveEdgeCases(t *testing.T) {
	train := PhaseStats{Mean: []float64{2}, Std: []float64{0}, Count: []int{10}}
	refEmpty := PhaseStats{Mean: []float64{0}, Std: []float64{0}, Count: []int{0}}
	if PhaseSensitive(train, refEmpty, 0, 0.1) {
		t.Fatal("unvisited phase cannot be sensitive")
	}
	// Zero training σ, large ref spread → sensitive.
	refNoisy := PhaseStats{Mean: []float64{2}, Std: []float64{1}, Count: []int{10}}
	if !PhaseSensitive(train, refNoisy, 0, 0.1) {
		t.Fatal("spread under zero-σ training should be sensitive")
	}
}
