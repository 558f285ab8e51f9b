package sampling

import (
	"context"
	"reflect"
	"testing"

	"simprof/internal/faults"
	"simprof/internal/phase"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// oracleBranches reports whether the five-pass SimProf took the pooled-σ
// fallback (a degraded stratum whose sampled s_h is 0) or mean-imputed a
// stratum, re-deriving both conditions from its inputs and output.
func oracleBranches(ph *phase.Phases, sp Stratified) (fallback, imputed bool) {
	sizes, caps := ph.Sizes(), ph.MeasuredSizes()
	for h, nh := range sp.Alloc {
		imputed = imputed || sp.Imputed[h]
		if nh == 0 || caps[h] == sizes[h] {
			continue
		}
		sh := stats.StdDev(ph.PhaseCPIs(h))
		if len(sp.PhaseSamples[h]) > 1 {
			sh = stats.StdDev(sp.PhaseSamples[h])
		}
		fallback = fallback || sh == 0
	}
	return fallback, imputed
}

// checkAgainstOracle asserts SimProf, PlanSE and RequiredSampleSize
// equal the five-pass reference on one formed trace.
func checkAgainstOracle(t *testing.T, name string, ph *phase.Phases) (fallback, imputed bool) {
	t.Helper()
	ctx := context.Background()
	for _, n := range []int{1, 5, 20, 60} {
		for _, seed := range []uint64{1, 77} {
			got, gotErr := SimProfCtx(ctx, ph, n, seed)
			want, wantErr := oracleSimProf(ctx, ph, n, seed)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
				t.Fatalf("%s n=%d seed=%d: SimProf\n got %+v, %v\nwant %+v, %v", name, n, seed, got, gotErr, want, wantErr)
			}
			if wantErr == nil {
				f, i := oracleBranches(ph, want)
				fallback, imputed = fallback || f, imputed || i
			}
		}
		got, gotErr := PlanSE(ph, n)
		want, wantErr := oraclePlanSE(ph, n)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s n=%d: PlanSE %v, %v; want %v, %v", name, n, got, gotErr, want, wantErr)
		}
	}
	for _, relErr := range []float64{0.02, 0.05} {
		got, gotErr := RequiredSampleSize(ph, relErr, 0.997)
		want, wantErr := oracleRequiredSampleSize(ph, relErr, 0.997)
		if got != want || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s relErr=%v: RequiredSampleSize %v, %v; want %v, %v", name, relErr, got, gotErr, want, wantErr)
		}
	}
	return fallback, imputed
}

// TestStratumScanMatchesOracle: the one-pass stratum scan behind
// SimProf, PlanSE and RequiredSampleSize is bit-for-bit the five-pass
// reference, on pristine traces and on traces degraded by the fault
// injector. The degraded set loses counters both before formation and
// after it (measured status is read per call, so units degraded after
// Form leave strata with one measured unit or none), and the test
// asserts that the σ-fallback and the imputed-stratum branches ran.
func TestStratumScanMatchesOracle(t *testing.T) {
	for _, seed := range []uint64{3, 9} {
		checkAgainstOracle(t, "pristine", formed(t, mixedTrace(80, seed)))
	}
	var fallbacks, imputes int
	for seed := uint64(1); seed <= 8; seed++ {
		spec := synth.DefaultTrace(300, seed)
		spec.Methods, spec.Snapshots = 64, 5
		tr, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := faults.Apply(tr, faults.Uniform(0.2, seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.Repair(); err != nil {
			t.Fatal(err)
		}
		ph := formed(t, base)
		checkAgainstOracle(t, "degraded", ph)
		// Lose most counters after formation: the phase structure stays,
		// the measured frames shrink.
		late, _, err := faults.Apply(base, faults.Uniform(0.8, seed+100))
		if err != nil {
			t.Fatal(err)
		}
		lateLoss(base, late)
		f, i := checkAgainstOracle(t, "degraded-after-form", ph)
		if f {
			fallbacks++
		}
		if i {
			imputes++
		}
	}
	t.Logf("σ fallback on %d of 8 degraded traces, imputation on %d", fallbacks, imputes)
	if fallbacks == 0 || imputes == 0 {
		t.Fatalf("degraded traces ran the σ fallback %d times and imputation %d times; want both", fallbacks, imputes)
	}
}

// lateLoss copies the counter loss of a fault-injected copy onto the
// units of tr it still has, matched by (thread, index).
func lateLoss(tr, faulty *trace.Trace) {
	type key struct{ thread, index int }
	lost := make(map[key]bool)
	for i := range faulty.Units {
		if u := &faulty.Units[i]; u.Quality.Has(trace.CountersMissing) {
			lost[key{u.Thread, u.Index}] = true
		}
	}
	for i := range tr.Units {
		if u := &tr.Units[i]; lost[key{u.Thread, u.Index}] {
			u.Counters = trace.Counters{}
			u.Quality |= trace.CountersMissing
		}
	}
}
