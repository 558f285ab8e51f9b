package phase

import (
	"reflect"
	"testing"

	"simprof/internal/trace"
)

// degradeUnits flags every nth unit CountersMissing (zeroing counters)
// and returns the degraded copy's indices.
func degradeEveryNth(tr *trace.Trace, n int) []int {
	var degraded []int
	for i := range tr.Units {
		if i%n == 0 {
			tr.Units[i].Counters = trace.Counters{}
			tr.Units[i].Quality |= trace.CountersMissing
			degraded = append(degraded, i)
		}
	}
	return degraded
}

func TestFormCleanPathUnchangedByHardening(t *testing.T) {
	// A pristine trace must produce no degraded mask and measured
	// helpers that match the plain ones exactly.
	tr := synthTrace(40, 6)
	ph, err := Form(tr, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ph.Degraded {
		if d {
			t.Fatalf("clean unit %d marked degraded", i)
		}
	}
	if ph.DegradedFraction() != 0 {
		t.Fatalf("DegradedFraction=%v", ph.DegradedFraction())
	}
	if !reflect.DeepEqual(ph.MeasuredSizes(), ph.Sizes()) {
		t.Fatal("MeasuredSizes != Sizes on a clean trace")
	}
}

func TestFormWithDegradedUnits(t *testing.T) {
	tr := synthTrace(40, 6)
	degraded := degradeEveryNth(tr, 5)
	ph, err := Form(tr, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ph.K != 2 {
		t.Fatalf("K=%d want 2", ph.K)
	}
	// Every unit — including degraded ones — is assigned a phase, so
	// phase weights still count all executed instructions.
	if len(ph.Assign) != len(tr.Units) {
		t.Fatalf("assign len %d != units %d", len(ph.Assign), len(tr.Units))
	}
	for _, i := range degraded {
		if !ph.Degraded[i] {
			t.Fatalf("unit %d not marked degraded", i)
		}
		if ph.Assign[i] < 0 || ph.Assign[i] >= ph.K {
			t.Fatalf("degraded unit %d unassigned: %d", i, ph.Assign[i])
		}
		if ph.UnitMeasured(i) {
			t.Fatalf("degraded unit %d counted as measured", i)
		}
	}
	// Degraded units are excluded from the CPI statistics.
	msizes := ph.MeasuredSizes()
	for h := 0; h < ph.K; h++ {
		for _, cpi := range ph.PhaseCPIs(h) {
			if cpi == 0 {
				t.Fatal("zero CPI leaked into phase statistics")
			}
		}
		if msizes[h] >= len(ph.PhaseUnits(h)) &&
			len(ph.PhaseUnits(h)) > 0 && h == ph.Assign[degraded[0]] {
			t.Fatalf("phase %d: measured count not reduced", h)
		}
	}
	sizes := ph.Sizes()
	total, mtotal := 0, 0
	for h := 0; h < ph.K; h++ {
		total += sizes[h]
		mtotal += msizes[h]
	}
	if total != len(tr.Units) {
		t.Fatalf("sizes sum %d", total)
	}
	if mtotal != len(tr.Units)-len(degraded) {
		t.Fatalf("measured sum %d want %d", mtotal, len(tr.Units)-len(degraded))
	}
	if got := ph.DegradedFraction(); got == 0 {
		t.Fatal("DegradedFraction 0 on a degraded trace")
	}
}

func TestFormDegradedClassification(t *testing.T) {
	// Degraded units keep informative snapshots (counters lost, stacks
	// fine) — classification must put them in the behaviourally right
	// phase via nearest-center, not a catch-all.
	tr := synthTrace(40, 6)
	tr.Units[0].Counters = trace.Counters{} // an "A.map" unit
	tr.Units[1].Counters = trace.Counters{} // a "B.sort" unit
	ph, err := Form(tr, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Units alternate a,b: unit 0 must follow unit 2's phase, unit 1
	// unit 3's.
	if ph.Assign[0] != ph.Assign[2] {
		t.Fatalf("degraded map unit classified into phase %d, clean map units in %d",
			ph.Assign[0], ph.Assign[2])
	}
	if ph.Assign[1] != ph.Assign[3] {
		t.Fatalf("degraded sort unit classified into phase %d, clean sort units in %d",
			ph.Assign[1], ph.Assign[3])
	}
}

func TestFormAllDegradedFails(t *testing.T) {
	tr := synthTrace(10, 2)
	for i := range tr.Units {
		tr.Units[i].Counters = trace.Counters{}
	}
	if _, err := Form(tr, Options{Seed: 1}); err == nil {
		t.Fatal("all-degraded trace should not form phases")
	}
}
