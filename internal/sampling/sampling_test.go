package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"simprof/internal/model"
	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// mixedTrace builds a trace with three behaviours of configurable CPI
// spread: low-variance map units, high-variance sort units and mid IO.
func mixedTrace(n int, seed uint64) *trace.Trace {
	tbl := model.NewTable()
	root := tbl.Intern("T", "run", model.KindFramework)
	mMap := tbl.Intern("W", "map", model.KindMap)
	mSort := tbl.Intern("Q", "sort", model.KindSort)
	mIO := tbl.Intern("H", "write", model.KindIO)
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{Benchmark: "mix", Framework: "spark", Methods: tbl.Methods()}
	var cycle uint64
	add := func(m model.MethodID, cpi float64) {
		u := trace.Unit{ID: len(tr.Units), StartCycle: cycle}
		for s := 0; s < 10; s++ {
			tr.AppendSnapshot(&u, model.Stack{root, m})
		}
		u.Counters = trace.Counters{Instructions: 1000, Cycles: uint64(1000 * cpi)}
		cycle += u.Counters.Cycles
		tr.Units = append(tr.Units, u)
	}
	for i := 0; i < n; i++ {
		add(mMap, 0.9+0.05*rng.Float64())
		add(mSort, 2.0+2.0*rng.Float64()) // heterogeneous
		if i%4 == 0 {
			add(mIO, 1.5+0.4*rng.Float64())
		}
	}
	return tr
}

func formed(t *testing.T, tr *trace.Trace) *phase.Phases {
	t.Helper()
	ph, err := phase.Form(tr, phase.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ph
}

func TestNeymanAllocationBasics(t *testing.T) {
	alloc, err := neymanAllocation([]int{100, 100}, []int{100, 100}, []float64{1, 3}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0]+alloc[1] != 20 {
		t.Fatalf("alloc sum=%d", alloc[0]+alloc[1])
	}
	if alloc[1] <= alloc[0] {
		t.Fatalf("higher-σ stratum got fewer points: %v", alloc)
	}
	// σ ratio 3:1 with equal N → roughly 5:15.
	if alloc[1] < 12 {
		t.Fatalf("allocation not ∝ Nσ: %v", alloc)
	}
}

func TestNeymanAllocationGuarantees(t *testing.T) {
	// Every non-empty stratum gets ≥1; capacity respected; zero-σ
	// strata still covered.
	alloc, err := neymanAllocation([]int{5, 1000, 3, 0}, []int{5, 1000, 3, 0}, []float64{0, 2, 0.1, 0}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] < 1 || alloc[2] < 1 {
		t.Fatalf("non-empty strata unallocated: %v", alloc)
	}
	if alloc[3] != 0 {
		t.Fatalf("empty stratum allocated: %v", alloc)
	}
	total := 0
	for h, a := range alloc {
		if a > []int{5, 1000, 3, 0}[h] {
			t.Fatalf("over-allocated stratum %d: %v", h, alloc)
		}
		total += a
	}
	if total != 30 {
		t.Fatalf("total=%d", total)
	}
}

func TestNeymanAllocationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		rng := stats.NewRNG(seed)
		k := 1 + rng.IntN(8)
		Nh := make([]int, k)
		sigma := make([]float64, k)
		total := 0
		for h := range Nh {
			Nh[h] = rng.IntN(200)
			sigma[h] = rng.Float64() * 3
			total += Nh[h]
		}
		n := int(nRaw % 500)
		alloc, err := neymanAllocation(Nh, Nh, sigma, n)
		if err != nil {
			return false
		}
		sum := 0
		for h, a := range alloc {
			if a < 0 || a > Nh[h] {
				return false
			}
			sum += a
		}
		want := n
		if want > total {
			want = total
		}
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNeymanAllocationErrors(t *testing.T) {
	if _, err := neymanAllocation(nil, nil, nil, 5); err == nil {
		t.Fatal("no strata should fail")
	}
	if _, err := neymanAllocation([]int{1}, []int{1}, []float64{1, 2}, 5); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := neymanAllocation([]int{-1}, []int{-1}, []float64{1}, 5); err == nil {
		t.Fatal("negative N should fail")
	}
}

func TestSRS(t *testing.T) {
	tr := mixedTrace(100, 1)
	s, err := SRS(tr, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 30 || s.Method != "SRS" {
		t.Fatalf("sample %+v", s)
	}
	if s.SE <= 0 {
		t.Fatal("SRS SE not computed")
	}
	if s.Err(tr) > 0.5 {
		t.Fatalf("SRS error %v implausible", s.Err(tr))
	}
	// n > N clamps to census → exact estimate.
	all, _ := SRS(tr, 10_000, 7)
	if all.Size() != len(tr.Units) {
		t.Fatal("census size wrong")
	}
	if math.Abs(all.EstCPI-tr.OracleCPI()) > 1e-9 {
		t.Fatal("census should be exact")
	}
	if _, err := SRS(&trace.Trace{}, 5, 1); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := SRS(tr, 0, 1); err == nil {
		t.Fatal("n=0 should fail")
	}
}

func TestSecondContiguousWindow(t *testing.T) {
	tr := mixedTrace(200, 2)
	cfg := SecondConfig{Seconds: 1, ClockHz: 50_000, StartFraction: 0.2}
	s, err := Second(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() == 0 {
		t.Fatal("empty SECOND sample")
	}
	// All units in the window are contiguous in start-cycle order.
	byID := map[int]trace.Unit{}
	for _, u := range tr.Units {
		byID[u.ID] = u
	}
	var lo, hi uint64 = math.MaxUint64, 0
	for _, id := range s.UnitIDs {
		sc := byID[id].StartCycle
		if sc < lo {
			lo = sc
		}
		if sc > hi {
			hi = sc
		}
	}
	for _, u := range tr.Units {
		if u.StartCycle > lo && u.StartCycle < hi {
			found := false
			for _, id := range s.UnitIDs {
				if id == u.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("unit %d inside window but not sampled", u.ID)
			}
		}
	}
}

func TestSecondPastEndFallsBack(t *testing.T) {
	tr := mixedTrace(10, 3)
	cfg := SecondConfig{Seconds: 1, ClockHz: 1, StartFraction: 0.999999}
	s, err := Second(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() < 1 {
		t.Fatal("SECOND should fall back to at least one unit")
	}
}

func TestCodeOnePointPerPhase(t *testing.T) {
	tr := mixedTrace(80, 4)
	ph := formed(t, tr)
	s, err := Code(ph)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != ph.K {
		t.Fatalf("CODE picked %d points for %d phases", s.Size(), ph.K)
	}
	if s.Err(tr) > 0.6 {
		t.Fatalf("CODE error %v implausible", s.Err(tr))
	}
}

func TestSimProfStratified(t *testing.T) {
	tr := mixedTrace(100, 5)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Size() != 20 {
		t.Fatalf("size=%d", sp.Size())
	}
	if sp.SE <= 0 {
		t.Fatal("SE not computed")
	}
	ci := sp.CI(0.997)
	if !ci.Contains(sp.EstCPI) || ci.Margin <= 0 {
		t.Fatalf("bad CI %v", ci)
	}
	// Allocation favours the heterogeneous sort phase.
	covs := ph.CPIStats()
	sizes := ph.Sizes()
	bestSigmaN, bestAlloc := -1.0, -1
	for h := 0; h < ph.K; h++ {
		if v := covs[h].Std * float64(sizes[h]); v > bestSigmaN {
			bestSigmaN = v
			bestAlloc = sp.Alloc[h]
		}
	}
	for h := 0; h < ph.K; h++ {
		if sp.Alloc[h] > bestAlloc {
			t.Fatalf("highest-Nσ phase not favoured: alloc=%v", sp.Alloc)
		}
	}
}

func TestSimProfBeatsSRSOnAverage(t *testing.T) {
	tr := mixedTrace(150, 6)
	ph := formed(t, tr)
	var srsErr, spErr float64
	const reps = 30
	for r := 0; r < reps; r++ {
		s, err := SRS(tr, 20, uint64(100+r))
		if err != nil {
			t.Fatal(err)
		}
		srsErr += s.Err(tr)
		sp, err := SimProf(ph, 20, uint64(200+r))
		if err != nil {
			t.Fatal(err)
		}
		spErr += sp.Err(tr)
	}
	if spErr >= srsErr {
		t.Fatalf("SimProf mean error %v not below SRS %v", spErr/reps, srsErr/reps)
	}
}

func TestCIIsCalibratedAgainstOracle(t *testing.T) {
	// The 99.7% CI should contain the oracle in (nearly) all repeated
	// draws.
	tr := mixedTrace(150, 8)
	ph := formed(t, tr)
	oracle := tr.OracleCPI()
	misses := 0
	const reps = 50
	for r := 0; r < reps; r++ {
		sp, err := SimProf(ph, 25, uint64(500+r))
		if err != nil {
			t.Fatal(err)
		}
		if !sp.CI(0.997).Contains(oracle) {
			misses++
		}
	}
	if misses > 3 {
		t.Fatalf("99.7%% CI missed oracle %d/%d times", misses, reps)
	}
}

func TestPlanSEDecreasesWithN(t *testing.T) {
	tr := mixedTrace(100, 9)
	ph := formed(t, tr)
	prev := math.Inf(1)
	for _, n := range []int{5, 10, 20, 40, 80} {
		se, err := PlanSE(ph, n)
		if err != nil {
			t.Fatal(err)
		}
		if se > prev+1e-12 {
			t.Fatalf("SE increased at n=%d: %v > %v", n, se, prev)
		}
		prev = se
	}
}

func TestRequiredSampleSize(t *testing.T) {
	tr := mixedTrace(150, 10)
	ph := formed(t, tr)
	n5, err := RequiredSampleSize(ph, 0.05, 0.997)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := RequiredSampleSize(ph, 0.02, 0.997)
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n5 {
		t.Fatalf("tighter error needs more points: n5=%d n2=%d", n5, n2)
	}
	// The returned size must actually achieve the target.
	se, _ := PlanSE(ph, n5)
	z := stats.ZForConfidence(0.997)
	if z*se > 0.05*tr.OracleCPI()*1.01 {
		t.Fatalf("n5=%d margin %v exceeds 5%% of %v", n5, z*se, tr.OracleCPI())
	}
	if _, err := RequiredSampleSize(ph, 0, 0.997); err == nil {
		t.Fatal("relErr=0 should fail")
	}
}

func TestSampleErrHelper(t *testing.T) {
	tr := mixedTrace(20, 11)
	s := Sample{EstCPI: tr.OracleCPI()}
	if s.Err(tr) != 0 {
		t.Fatal("exact estimate should have 0 error")
	}
}

func TestStratifiedBootstrapCIAgreesWithCLT(t *testing.T) {
	tr := mixedTrace(200, 40)
	ph := formed(t, tr)
	sp, err := SimProf(ph, 60, 13)
	if err != nil {
		t.Fatal(err)
	}
	clt := sp.CI(0.95)
	boot := sp.BootstrapCI(0.95, 2000, 17)
	if boot.Margin <= 0 {
		t.Fatal("bootstrap margin missing")
	}
	// Same order of magnitude as the CLT interval.
	if boot.Margin > 3*clt.Margin || clt.Margin > 3*boot.Margin {
		t.Fatalf("bootstrap %v vs CLT %v disagree wildly", boot.Margin, clt.Margin)
	}
	if !boot.Contains(tr.OracleCPI()) && !clt.Contains(tr.OracleCPI()) {
		t.Fatal("both intervals miss the oracle")
	}
}

// TestCensusCIContainsOracle: a sample as large as the trace draws every
// unit, so the estimate is the population mean up to rounding and its SE
// is 0. The stratified sum and the oracle add the same CPIs in different
// orders and can differ in the last bits; the interval must still
// contain the oracle.
func TestCensusCIContainsOracle(t *testing.T) {
	differ := 0
	for seed := uint64(1); seed <= 20; seed++ {
		tr := mixedTrace(30, seed)
		ph := formed(t, tr)
		sp, err := SimProf(ph, len(tr.Units)+5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Size() != len(tr.Units) || sp.SE != 0 {
			t.Fatalf("seed %d: census drew %d of %d units, SE %v", seed, sp.Size(), len(tr.Units), sp.SE)
		}
		oracle := tr.OracleCPI()
		if sp.EstCPI != oracle {
			differ++
		}
		for _, level := range []float64{0.95, 0.997} {
			if ci := sp.CI(level); !ci.Contains(oracle) {
				t.Fatalf("seed %d: census CI %.17g ± %g misses the oracle %.17g", seed, ci.Mean, ci.Margin, oracle)
			}
		}
	}
	if differ == 0 {
		t.Fatal("every census estimate equals its oracle bit for bit: the test no longer exercises rounding")
	}
}

// TestCIMarginIsZSEAboveRounding: an interval with spread keeps the
// plain z·SE margin bit for bit; the rounding floor only lifts an
// interval whose z·SE is smaller than it, as SE = 0 is.
func TestCIMarginIsZSEAboveRounding(t *testing.T) {
	ids := make([]int, 100)
	for _, se := range []float64{1e-3, 0.05, 2} {
		s := Sample{UnitIDs: ids, EstCPI: 1.7, SE: se}
		if got, want := s.CI(0.997).Margin, stats.ZForConfidence(0.997)*se; got != want {
			t.Fatalf("SE %v: margin %v, want z·SE = %v", se, got, want)
		}
	}
	s := Sample{UnitIDs: ids, EstCPI: 1.7}
	floor := s.CI(0.997).Margin
	if floor <= 0 || floor > 1e-12 {
		t.Fatalf("SE 0: margin %v, want a rounding-sized floor", floor)
	}
	if s.CI(0.95).Margin != floor {
		t.Fatal("the rounding floor depends on the confidence level")
	}
}
