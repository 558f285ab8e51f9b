package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads: each end-to-end
// metric's direction and regression bound (a share of the baseline
// median).
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare reads two sets of untraced result files, A (the baseline)
// and B, and prints per workload and end-to-end metric each side's
// quartiles, the share of seed-matched pairs B wins, and a verdict
// against the metric's bound:
//
//	ok          B's median is not worse than A's by more than the bound
//	regressed   it is, and both sides' spreads are within the bound
//	unresolved  a side's quartile spread exceeds the bound, and B does
//	            not beat A on every run
//
// It reads the bounds from benchPath and returns an error when any
// pairing regressed.
func runCompare(benchPath string, args []string, w io.Writer) error {
	var aPaths, bPaths []string
	side := &aPaths
	for _, arg := range args {
		if arg == "vs" {
			side = &bPaths
			continue
		}
		*side = append(*side, arg)
	}
	if len(aPaths) == 0 || len(bPaths) == 0 {
		return errors.New("usage: simprofbench compare A.json... vs B.json...")
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadRuns(aPaths)
	if err != nil {
		return err
	}
	b, err := loadRuns(bPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-18s %32s %32s %8s %6s %6s  %s\n",
		"workload", "metric", "A q1/median/q3", "B q1/median/q3", "Δmedian", "B wins", "bound", "verdict")
	regressed := 0
	for _, wl := range workloadNames {
		if len(a[wl]) == 0 || len(b[wl]) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			av, bv := seedValues(a[wl], m.Name), seedValues(b[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(values(av))
			bq1, bm, bq3 := quartiles(values(bv))
			v := verdict(values(av), values(bv), m.Better, m.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-18s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %+7.2f%% %5.0f%% %5.0f%%  %s\n",
				wl, m.Name, aq1, am, aq3, bq1, bm, bq3, 100*(bm-am)/am, 100*winRate(av, bv, m.Better), 100*m.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload/metric pairings regressed", regressed)
	}
	return nil
}

// loadRuns reads result files and groups the untraced ones by workload.
func loadRuns(paths []string) (map[string][]*Result, error) {
	out := map[string][]*Result{}
	for _, p := range paths {
		res, err := readResult(p)
		if err != nil {
			return nil, err
		}
		if !res.Traced {
			out[res.Workload] = append(out[res.Workload], res)
		}
	}
	return out, nil
}

// seedValue is one run's value of a metric.
type seedValue struct {
	seed uint64
	v    float64
}

func seedValues(runs []*Result, metric string) []seedValue {
	var out []seedValue
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, seedValue{r.Seed, m.Value})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seed < out[j].seed })
	return out
}

func values(svs []seedValue) []float64 {
	out := make([]float64, len(svs))
	for i, sv := range svs {
		out[i] = sv.v
	}
	return out
}

// better reports whether x is strictly better than y in direction dir.
func better(x, y float64, dir string) bool {
	if dir == "higher" {
		return x > y
	}
	return x < y
}

// winRate is the share of runs B wins against A on the same seed (runs
// pair in seed order when the seeds differ); ties count for neither.
func winRate(a, b []seedValue, dir string) float64 {
	bySeed := map[uint64]float64{}
	for _, sv := range a {
		bySeed[sv.seed] = sv.v
	}
	wins, pairs := 0, 0
	for _, sv := range b {
		if av, ok := bySeed[sv.seed]; ok {
			pairs++
			if better(sv.v, av, dir) {
				wins++
			}
		}
	}
	if pairs == 0 {
		for i := 0; i < min(len(a), len(b)); i++ {
			pairs++
			if better(b[i].v, a[i].v, dir) {
				wins++
			}
		}
	}
	return ratio(float64(wins), float64(pairs))
}

// verdict judges B against the baseline A for one metric.
func verdict(a, b []float64, dir string, bound float64) string {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	spread := math.Max((aq3-aq1)/math.Abs(am), (bq3-bq1)/math.Abs(bm))
	if spread > bound {
		for _, bv := range b {
			for _, av := range a {
				if !better(bv, av, dir) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	worse := (bm - am) / math.Abs(am)
	if dir == "higher" {
		worse = -worse
	}
	if worse > bound {
		return "regressed"
	}
	return "ok"
}
