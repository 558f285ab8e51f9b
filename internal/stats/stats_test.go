package stats

import (
	"math"
	"testing"
	"testing/quick"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean=%v want 5", got)
	}
	if got := PopVariance(xs); got != 4 {
		t.Fatalf("PopVariance=%v want 4", got)
	}
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance=%v want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev=%v", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || CoV(nil) != 0 {
		t.Fatal("empty-sample estimators should be 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single observation variance should be 0")
	}
	if CoV([]float64{0, 0, 0}) != 0 {
		t.Fatal("zero-mean CoV should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Fatalf("Summarize=%+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Fatalf("odd median=%v want 3", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty Summarize=%+v", z)
	}
}

func TestWeightedMean(t *testing.T) {
	if got := WeightedMean([]float64{1, 10}, []float64{3, 1}); !almost(got, 13.0/4.0, 1e-12) {
		t.Fatalf("WeightedMean=%v", got)
	}
	if WeightedMean(nil, nil) != 0 {
		t.Fatal("empty WeightedMean should be 0")
	}
}

func TestPearsonAndFScore(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); !almost(r, 1, 1e-12) {
		t.Fatalf("perfect correlation r=%v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); !almost(r, -1, 1e-12) {
		t.Fatalf("perfect anti-correlation r=%v", r)
	}
	if r := Pearson(xs, []float64{7, 7, 7, 7, 7}); r != 0 {
		t.Fatalf("constant target r=%v want 0", r)
	}
	if f := FScore(1, 10); !math.IsInf(f, 1) {
		t.Fatalf("FScore(r=1) = %v want +Inf", f)
	}
	if f := FScore(0, 10); f != 0 {
		t.Fatalf("FScore(r=0) = %v want 0", f)
	}
	// F = r²/(1-r²)(n-2): r=0.5, n=10 → 0.25/0.75*8 = 8/3.
	if f := FScore(0.5, 10); !almost(f, 8.0/3.0, 1e-12) {
		t.Fatalf("FScore=%v want %v", f, 8.0/3.0)
	}
}

func TestFRegressionRanksInformativeFeature(t *testing.T) {
	// Feature 0 = noise-free linear signal, feature 1 = constant,
	// feature 2 = weakly related.
	target := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := matrix.NewSparseBuilder(3, len(target), 0)
	rows := make([]int, len(target))
	rng := NewRNG(7)
	for i, y := range target {
		b.AppendRow([]int32{0, 1, 2}, []float64{2 * y, 5, y + 4*rng.Float64()})
		rows[i] = i
	}
	scores := FRegressionSparseWith(parallel.New(1), b.Build(), rows, target)
	if len(scores) != 3 {
		t.Fatalf("len(scores)=%d", len(scores))
	}
	top := TopK(scores, 2)
	if top[0] != 0 {
		t.Fatalf("TopK first=%d want 0 (scores=%v)", top[0], scores)
	}
	if scores[1] != 0 {
		t.Fatalf("constant feature score=%v want 0", scores[1])
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{1, math.NaN(), 5, 5, 2}
	got := TopK(scores, 3)
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("TopK=%v", got)
	}
	if got := TopK(scores, 99); len(got) != 5 {
		t.Fatalf("TopK overflow len=%d", len(got))
	}
	if got[len(got)-1] == 1 {
		t.Fatal("NaN should rank last") // index 1 is the NaN
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(1.1, 1.0) != 0.10000000000000009 && !almost(RelErr(1.1, 1.0), 0.1, 1e-12) {
		t.Fatalf("RelErr=%v", RelErr(1.1, 1.0))
	}
	if RelErr(0, 0) != 0 {
		t.Fatal("RelErr(0,0) should be 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Fatal("RelErr(x,0) should be +Inf")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.9985, 2.967737925342168},
		{0.025, -1.959963984540054},
		{0.0001, -3.719016485455709},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); !almost(got, c.want, 1e-6) {
			t.Errorf("NormalQuantile(%v)=%v want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01 // p in [0.01, 0.99]
		x := NormalQuantile(p)
		return almost(NormalCDF(x), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZForConfidence(t *testing.T) {
	if z := ZForConfidence(0.95); !almost(z, 1.96, 1e-3) {
		t.Fatalf("z(0.95)=%v", z)
	}
	if z := ZForConfidence(0.997); !almost(z, 2.9677, 1e-3) {
		t.Fatalf("z(0.997)=%v", z)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ZForConfidence(1.5) should panic")
		}
	}()
	ZForConfidence(1.5)
}

func TestConfidenceInterval(t *testing.T) {
	ci := ConfidenceInterval(10, 0.5, 0.95)
	if !almost(ci.Margin, 1.96*0.5, 1e-3) {
		t.Fatalf("margin=%v", ci.Margin)
	}
	if !ci.Contains(10) || !ci.Contains(ci.Lo()) || ci.Contains(ci.Hi()+0.01) {
		t.Fatal("Contains misbehaves")
	}
	if ci.String() == "" {
		t.Fatal("empty String")
	}
}
