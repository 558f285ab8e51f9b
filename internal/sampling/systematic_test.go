package sampling

import (
	"fmt"
	"math"
	"testing"

	"simprof/internal/trace"
)

func TestSystematicStride(t *testing.T) {
	tr := mixedTrace(100, 21)
	s, err := Systematic(tr, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() == 0 || s.Size() > 20 {
		t.Fatalf("size=%d", s.Size())
	}
	// Selected ids are equally spaced.
	stride := s.UnitIDs[1] - s.UnitIDs[0]
	for i := 1; i < len(s.UnitIDs); i++ {
		if s.UnitIDs[i]-s.UnitIDs[i-1] != stride {
			t.Fatalf("uneven stride: %v", s.UnitIDs)
		}
	}
	if s.Err(tr) > 0.6 {
		t.Fatalf("error %v implausible", s.Err(tr))
	}
	if s.SE <= 0 {
		t.Fatal("SE missing")
	}
}

func TestSystematicCoversStages(t *testing.T) {
	// Unlike SECOND, a systematic sample spans the whole execution: the
	// first and last selected units are near the trace's ends.
	tr := mixedTrace(200, 22)
	s, _ := Systematic(tr, 25, 5)
	if s.UnitIDs[0] >= 50 {
		t.Fatalf("first point %d too late", s.UnitIDs[0])
	}
	if s.UnitIDs[len(s.UnitIDs)-1] < len(tr.Units)-60 {
		t.Fatalf("last point %d too early", s.UnitIDs[len(s.UnitIDs)-1])
	}
}

func TestSystematicErrors(t *testing.T) {
	tr := mixedTrace(10, 23)
	if _, err := Systematic(tr, 0, 1); err == nil {
		t.Fatal("n=0 should fail")
	}
	if _, err := Systematic(&trace.Trace{}, 5, 1); err == nil {
		t.Fatal("empty trace should fail")
	}
	// n ≥ N clamps.
	s, err := Systematic(tr, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() > len(tr.Units) {
		t.Fatal("oversampled")
	}
}

func TestSimProfSystematicTradeoff(t *testing.T) {
	tr := mixedTrace(150, 24)
	ph := formed(t, tr)
	full, err := SimProfSystematic(ph, CombinedConfig{Points: 20, SubUnitFraction: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	quarter, err := SimProfSystematic(ph, CombinedConfig{Points: 20, SubUnitFraction: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if full.DetailInstructions != full.FullInstructions {
		t.Fatal("fraction 1 should keep the full budget")
	}
	if quarter.DetailInstructions != full.FullInstructions/4 {
		t.Fatalf("budget=%d want quarter of %d", quarter.DetailInstructions, full.FullInstructions)
	}
	if math.Abs(quarter.ExtraSEFactor-2) > 1e-9 {
		t.Fatalf("SE factor=%v want 2", quarter.ExtraSEFactor)
	}
	if quarter.SE <= full.SE {
		t.Fatal("cheaper detail budget must widen the error bound")
	}
	// The point selection itself is the same stratified sample.
	if len(quarter.UnitIDs) != len(full.UnitIDs) {
		t.Fatal("point sets differ")
	}
	if _, err := SimProfSystematic(ph, CombinedConfig{Points: 20, SubUnitFraction: 0}); err == nil {
		t.Fatal("fraction 0 should fail")
	}
}

func TestEstimateOnTraceTracksTarget(t *testing.T) {
	// Profiled machine: mixedTrace(seed A). "Design": same structure
	// with all CPIs scaled 1.5× (unit ids align by construction).
	tr := mixedTrace(150, 30)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	target := mixedTrace(150, 30)
	for i := range target.Units {
		target.Units[i].Counters.Cycles = target.Units[i].Counters.Cycles * 3 / 2
	}
	est, err := EstimateOnTrace(ph, sp, target)
	if err != nil {
		t.Fatal(err)
	}
	if est.Err(target) > 0.12 {
		t.Fatalf("design estimate error %v too high", est.Err(target))
	}
	// Mismatched builds are rejected.
	short := mixedTrace(10, 31)
	if _, err := EstimateOnTrace(ph, sp, short); err == nil {
		t.Fatal("mismatched unit counts should fail")
	}
}

// TestEstimateOnTraceRejectsUnmeasuredPoint: a chosen point whose target
// unit has no valid CPI (lost counters, or zero instructions) is an
// error naming the point, not a CPI of 0 in the phase mean.
func TestEstimateOnTraceRejectsUnmeasuredPoint(t *testing.T) {
	tr := mixedTrace(40, 30)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	id := sp.UnitIDs[len(sp.UnitIDs)/2]
	for _, lose := range []func(u *trace.Unit){
		func(u *trace.Unit) { u.Quality |= trace.CountersMissing },
		func(u *trace.Unit) { u.Counters.Instructions = 0 },
	} {
		target := mixedTrace(40, 30)
		lose(&target.Units[id])
		_, err := EstimateOnTrace(ph, sp, target)
		want := fmt.Sprintf("sampling: point %d has no valid CPI on the target trace", id)
		if err == nil || err.Error() != want {
			t.Fatalf("got %v, want %s", err, want)
		}
	}
}
