package sampling

import (
	"fmt"
	"math"
	"testing"

	"simprof/internal/phase"
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

// TestEstimateOnTraceTracksTarget: a design whose every unit runs 1.5×
// the cycles (unit ids align by construction) gets 1.5× the profile's
// estimate and SE. The integer cycle counts round each target CPI by at
// most 0.5/1000 = 5e-4 off 1.5× the profiled one; the estimate, a
// weighted mean, moves by no more, and the SE, a norm of per-stratum
// spreads, by at most √2 times that.
func TestEstimateOnTraceTracksTarget(t *testing.T) {
	for _, seed := range []uint64{30, 31, 32} {
		tr := mixedTrace(150, seed)
		ph := formed(t, tr)
		sp, err := SimProf(ph, 25, 9)
		if err != nil {
			t.Fatal(err)
		}
		target := mixedTrace(150, seed)
		for i := range target.Units {
			target.Units[i].Counters.Cycles = target.Units[i].Counters.Cycles * 3 / 2
		}
		est, err := EstimateOnTrace(ph, sp, target)
		if err != nil {
			t.Fatal(err)
		}
		const round = 0.5 / 1000
		if d := math.Abs(est.EstCPI - 1.5*sp.EstCPI); d > round {
			t.Fatalf("seed %d: design estimate %v, want 1.5 × %v (off by %v)", seed, est.EstCPI, sp.EstCPI, d)
		}
		if d := math.Abs(est.SE - 1.5*sp.SE); d > math.Sqrt2*round {
			t.Fatalf("seed %d: design SE %v, want 1.5 × %v (off by %v)", seed, est.SE, sp.SE, d)
		}
	}
	// Mismatched builds are rejected.
	tr := mixedTrace(150, 30)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	short := mixedTrace(10, 31)
	if _, err := EstimateOnTrace(ph, sp, short); err == nil {
		t.Fatal("mismatched unit counts should fail")
	}
}

// TestEstimateOnTraceSelfMatchesSimProf: the target estimate on the
// profiled trace itself is the sample's own estimate and SE, bit for
// bit — on a pristine trace, on a degraded one, on one that lost every
// unit of a phase after formation (that phase is imputed) and on one
// left with a single measured unit in a phase (its σ falls back to the
// pooled spread).
func TestEstimateOnTraceSelfMatchesSimProf(t *testing.T) {
	cases := []struct {
		name              string
		before            func(tr *trace.Trace)
		after             func(tr *trace.Trace, ph *phase.Phases)
		imputed, fallback bool
	}{
		{name: "pristine"},
		{name: "degraded", before: func(tr *trace.Trace) {
			for i := 0; i < len(tr.Units); i += 3 {
				degradeCounters(tr, i)
			}
		}},
		{name: "phase lost after formation", imputed: true, after: func(tr *trace.Trace, ph *phase.Phases) {
			degradeCounters(tr, ph.PhaseUnits(0)...)
		}},
		{name: "one unit left after formation", fallback: true, after: func(tr *trace.Trace, ph *phase.Phases) {
			degradeCounters(tr, ph.PhaseUnits(1)[1:]...)
		}},
	}
	for _, c := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			tr := mixedTrace(40, seed)
			if c.before != nil {
				c.before(tr)
			}
			ph := formed(t, tr)
			if c.after != nil {
				if ph.K < 2 {
					t.Fatalf("%s seed %d: %d phase(s), want ≥ 2", c.name, seed, ph.K)
				}
				c.after(tr, ph)
			}
			sp, err := SimProf(ph, 16, 55)
			if err != nil {
				t.Fatal(err)
			}
			if fallback, imputed := oracleBranches(ph, sp); fallback != c.fallback || imputed != c.imputed {
				t.Fatalf("%s seed %d: fallback %v imputed %v, want %v %v", c.name, seed, fallback, imputed, c.fallback, c.imputed)
			}
			est, err := EstimateOnTrace(ph, sp, ph.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if est.EstCPI != sp.EstCPI || est.SE != sp.SE {
				t.Fatalf("%s seed %d: on the profiled trace EstCPI %v SE %v, the sample's own %v %v",
					c.name, seed, est.EstCPI, est.SE, sp.EstCPI, sp.SE)
			}
		}
	}
}

// TestEstimateOnTraceRejectsForeignSample: a sample drawn from phases
// with another phase count is an error naming both counts, not an index
// out of range.
func TestEstimateOnTraceRejectsForeignSample(t *testing.T) {
	tr := mixedTrace(40, 30)
	ph := formed(t, tr)
	one, err := phase.Form(tr, phase.Options{Seed: 5, MaxPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := SimProf(one, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EstimateOnTrace(ph, sp, tr)
	want := fmt.Sprintf("sampling: sample has %d phases but the phases have %d — drawn from other phases", one.K, ph.K)
	if one.K >= ph.K || err == nil || err.Error() != want {
		t.Fatalf("K=%d from K=%d: got %v, want %s", ph.K, one.K, err, want)
	}
	// A sample that SimProf did not draw carries no draw record.
	if _, err := EstimateOnTrace(ph, Stratified{Alloc: make([]int, ph.K)}, tr); err == nil {
		t.Fatal("a hand-built sample was accepted")
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
