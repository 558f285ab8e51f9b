package sampling

import (
	"testing"

	"simprof/internal/phase"
	"simprof/internal/trace"
)

// degradeCounters flags the given unit indices CountersMissing.
func degradeCounters(tr *trace.Trace, idx ...int) {
	for _, i := range idx {
		tr.Units[i].Counters = trace.Counters{}
		tr.Units[i].Quality |= trace.CountersMissing
	}
}

func TestNeymanCapacityAware(t *testing.T) {
	// Stratum 0 has 100 population units but only 3 measurable; the
	// allocation must respect the capacity and spill to stratum 1.
	alloc, err := neymanAllocation([]int{100, 100}, []int{3, 100}, []float64{2, 1}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] > 3 {
		t.Fatalf("alloc %v exceeds capacity 3", alloc)
	}
	if alloc[0]+alloc[1] != 20 {
		t.Fatalf("alloc %v does not sum to 20", alloc)
	}
	// A zero-capacity stratum gets nothing even with huge σ.
	alloc, err = neymanAllocation([]int{50, 50}, []int{0, 50}, []float64{100, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 0 || alloc[1] != 10 {
		t.Fatalf("alloc %v want [0 10]", alloc)
	}
	// Capacity above the stratum size, or one capacity per stratum
	// missing, is a caller bug.
	if _, err := neymanAllocation([]int{5}, []int{6}, []float64{1}, 3); err == nil {
		t.Fatal("capacity > Nh accepted")
	}
	if _, err := neymanAllocation([]int{100, 50, 10}, []int{5, 50}, []float64{2, 1, 0.5}, 30); err == nil {
		t.Fatal("mismatched capacity length accepted")
	}
}

func TestSimProfCleanPathBitIdentical(t *testing.T) {
	// On a pristine trace the degraded-aware SimProf must make exactly
	// the same draws and report the same numbers as before hardening:
	// the measured frame IS the population frame.
	tr := mixedTrace(60, 9)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 24, 123)
	if err != nil {
		t.Fatal(err)
	}
	if sp.DegradedFrac != 0 {
		t.Fatalf("DegradedFrac=%v on clean trace", sp.DegradedFrac)
	}
	if sp.SEInflation != 1 {
		t.Fatalf("SEInflation=%v on clean trace", sp.SEInflation)
	}
	for h, imp := range sp.Imputed {
		if imp {
			t.Fatalf("phase %d imputed on clean trace", h)
		}
	}
}

func TestSimProfSkipsDegradedUnits(t *testing.T) {
	tr := mixedTrace(60, 9)
	// Degrade a third of the units.
	var idx []int
	for i := 0; i < len(tr.Units); i += 3 {
		idx = append(idx, i)
	}
	degradeCounters(tr, idx...)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 24, 123)
	if err != nil {
		t.Fatal(err)
	}
	if sp.DegradedFrac == 0 {
		t.Fatal("DegradedFrac not reported")
	}
	bad := map[int]bool{}
	for _, i := range idx {
		bad[tr.Units[i].ID] = true
	}
	for _, id := range sp.UnitIDs {
		if bad[id] {
			t.Fatalf("degraded unit %d drawn as a simulation point", id)
		}
	}
	// The estimate is built from real CPIs only, so it stays near the
	// oracle of the valid units instead of being dragged toward zero.
	oracle := tr.OracleCPI()
	if sp.EstCPI < 0.5*oracle || sp.EstCPI > 1.5*oracle {
		t.Fatalf("estimate %v far from oracle %v", sp.EstCPI, oracle)
	}
}

func TestSimProfImputesEmptyStratum(t *testing.T) {
	tr := mixedTrace(40, 9)
	ph := formed(t, tr)
	if ph.K < 2 {
		t.Skip("need at least 2 phases")
	}
	// Degrade EVERY unit of phase 0: nothing left to draw there.
	var idx []int
	for i, a := range ph.Assign {
		if a == 0 {
			idx = append(idx, i)
		}
	}
	degradeCounters(tr, idx...)
	// Re-form on the degraded trace (phase structure may shift; find a
	// fully-degraded stratum, if any survived re-clustering).
	ph2 := formed(t, tr)
	sp, err := SimProf(ph2, 16, 55)
	if err != nil {
		t.Fatal(err)
	}
	msizes := ph2.MeasuredSizes()
	sizes := ph2.Sizes()
	for h := 0; h < ph2.K; h++ {
		if sizes[h] > 0 && msizes[h] == 0 {
			if !sp.Imputed[h] {
				t.Fatalf("phase %d has no measurable units but was not imputed", h)
			}
			if sp.PhaseMean[h] == 0 {
				t.Fatalf("imputed phase %d carries no mean", h)
			}
			if sp.SEInflation <= 1 {
				t.Fatalf("imputation did not widen the SE: inflation %v", sp.SEInflation)
			}
		}
	}
	// The bootstrap CI must stay usable (weights renormalized).
	ci := sp.BootstrapCI(0.99, 500, 3)
	if ci.Margin < 0 {
		t.Fatalf("bootstrap margin %v", ci.Margin)
	}
}

func TestSimProfAllDegradedFails(t *testing.T) {
	tr := mixedTrace(20, 4)
	ph := formed(t, tr)
	for i := range tr.Units {
		tr.Units[i].Quality |= trace.CountersMissing
	}
	if _, err := SimProf(ph, 10, 1); err == nil {
		t.Fatal("no measurable units should be an error")
	}
}

func TestSRSAndSystematicSkipDegraded(t *testing.T) {
	tr := mixedTrace(50, 7)
	// Degrade every 5th unit — coprime with Systematic's stride so the
	// pass cannot land exclusively on degraded units.
	var idx []int
	for i := 0; i < len(tr.Units); i += 5 {
		idx = append(idx, i)
	}
	degradeCounters(tr, idx...)
	bad := map[int]bool{}
	for _, i := range idx {
		bad[tr.Units[i].ID] = true
	}
	srs, err := SRS(tr, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range srs.UnitIDs {
		if bad[id] {
			t.Fatalf("SRS drew degraded unit %d", id)
		}
	}
	sys, err := Systematic(tr, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sys.UnitIDs {
		if bad[id] {
			t.Fatalf("Systematic kept degraded unit %d", id)
		}
	}
	if srs.EstCPI == 0 || sys.EstCPI == 0 {
		t.Fatal("estimates collapsed to zero")
	}
	sec, err := Second(tr, DefaultSecond())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sec.UnitIDs {
		if bad[id] {
			t.Fatalf("Second kept degraded unit %d", id)
		}
	}
}

func TestCodeSkipsDegradedRepresentatives(t *testing.T) {
	tr := mixedTrace(50, 7)
	// Degrade half of each phase.
	var idx []int
	for i := range tr.Units {
		if i%2 == 0 {
			idx = append(idx, i)
		}
	}
	degradeCounters(tr, idx...)
	ph2, err := phase.Form(tr, phase.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	code, err := Code(ph2)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[int]bool{}
	for _, i := range idx {
		bad[tr.Units[i].ID] = true
	}
	for _, id := range code.UnitIDs {
		if bad[id] {
			t.Fatalf("CODE picked degraded representative %d", id)
		}
	}
	if code.EstCPI == 0 {
		t.Fatal("estimate collapsed to zero")
	}
}

func TestRequiredSampleSizeDegraded(t *testing.T) {
	tr := mixedTrace(60, 11)
	var idx []int
	for i := 0; i < len(tr.Units); i += 2 {
		idx = append(idx, i)
	}
	degradeCounters(tr, idx...)
	ph := formed(t, tr)
	n, err := RequiredSampleSize(ph, 0.10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, c := range ph.MeasuredSizes() {
		measured += c
	}
	if n > measured {
		t.Fatalf("required %d exceeds the %d measurable units", n, measured)
	}
}
