package main

import "testing"

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(vals []float64, f float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		b    []float64
		dir  string
		want string
	}{
		{"same", base, "lower", "ok"},
		{"slower within bound", shift(base, 1.05), "lower", "ok"},
		{"slower beyond bound", shift(base, 1.2), "lower", "regressed"},
		{"faster", shift(base, 0.8), "lower", "ok"},
		{"throughput down", shift(base, 0.8), "higher", "regressed"},
		{"too noisy to tell", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, "lower", "unresolved"},
		{"noisy but better on every run", []float64{40, 80, 45, 75, 50, 70, 55, 65, 60, 60}, "lower", "ok"},
	} {
		if got := verdict(base, tc.b, tc.dir, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestWinRatePairsBySeed(t *testing.T) {
	a := []seedValue{{1, 10}, {2, 10}, {3, 10}, {4, 10}}
	b := []seedValue{{1, 9}, {2, 9}, {3, 10}, {4, 11}}
	if got := winRate(a, b, "lower"); got != 0.5 {
		t.Errorf("lower-is-better win rate %g, want 0.5 (one tie counts for neither)", got)
	}
	if got := winRate(a, b, "higher"); got != 0.25 {
		t.Errorf("higher-is-better win rate %g, want 0.25", got)
	}
}
