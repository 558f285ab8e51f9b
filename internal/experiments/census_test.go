package experiments

import (
	"testing"

	"simprof/internal/sampling"
	"simprof/internal/stats"
)

// TestQuickCensusCoverage is the census repro on the Quick suite: at
// n = 50, SimProf samples every unit of the small traces, so the
// estimate is the population mean up to rounding and its SE is 0. Such
// an interval must still contain the oracle CPI, which sums the same
// values in another order. Every interval with SE > 0 keeps the plain
// z·SE margin, bit for bit.
func TestQuickCensusCoverage(t *testing.T) {
	if err := testSuite.Preload(); err != nil {
		t.Fatal(err)
	}
	const level, seeds = 0.997, 50
	z := stats.ZForConfidence(level)
	covered, total, censuses := 0, 0, 0
	for _, w := range testSuite.Workloads() {
		ph, err := testSuite.Phases(w)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ph.Trace.OracleCPI()
		misses := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			sp, err := sampling.SimProf(ph, 50, seed)
			if err != nil {
				t.Fatal(err)
			}
			ci := sp.CI(level)
			census := len(sp.UnitIDs) == len(ph.Assign)
			if census {
				censuses++
				if sp.SE != 0 {
					t.Fatalf("%s seed %d: census with SE %v", w, seed, sp.SE)
				}
				if !ci.Contains(oracle) {
					misses++
				}
			}
			if sp.SE > 0 && ci.Margin != z*sp.SE {
				t.Fatalf("%s seed %d: margin %v, want z·SE = %v", w, seed, ci.Margin, z*sp.SE)
			}
			total++
			if ci.Contains(oracle) {
				covered++
			}
		}
		if misses > 0 {
			t.Errorf("%s: %d census intervals miss the oracle %.17g", w, misses, oracle)
		}
	}
	if censuses == 0 {
		t.Fatal("no trace was censused: the repro no longer exercises the census")
	}
	t.Logf("%.1f%% coverage (%d/%d), %d censuses", 100*float64(covered)/float64(total), covered, total, censuses)
	// 492/600 (82.0%) at the parent, with every census miss counted.
	if covered <= 492 {
		t.Fatalf("coverage %d/%d, not above the 492 measured with zero-width census intervals", covered, total)
	}
}
