package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestResultFileRoundTrip(t *testing.T) {
	want := &Result{
		Workload: "serve-cold", Seed: 7, Seconds: 20, Traced: true, Scale: "full",
		Revision: "207f33d1815f", Modified: true, GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2,
		Started: "2026-01-01T00:00:00Z", Correct: true, Attempted: 540, Failed: 0,
		Checks:    []Check{{Name: "every request a cache miss", OK: true, Detail: "0 responses"}},
		Digest:    strings.Repeat("ab", 32),
		DigestOps: 144,
		Metrics:   map[string]Metric{"history.append_pct": {49.4580123456789, "%"}},
		Ledger:    map[string]Metric{"history.append_ms_p50": {30.302001, "ms"}},
	}
	path, err := writeResult(t.TempDir(), want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "serve-cold-seed7-trace1.json") {
		t.Errorf("result written to %s", path)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

// The last line of output is the JSON summary: exactly correct,
// attempted, failed and metrics, with values at full precision.
func TestSummaryIsTheLastLine(t *testing.T) {
	res := &Result{Workload: "offline-paper", Correct: true, Attempted: 3, Failed: 0,
		Metrics: map[string]Metric{"latency_ms_p50": {19.993652, "ms"}}}
	var out bytes.Buffer
	printResult(&out, res, "x.json")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("summary keys %v, want correct, attempted, failed, metrics", keys)
	}
	if !strings.Contains(lines[len(lines)-1], "19.993652") {
		t.Errorf("summary lost digits: %s", lines[len(lines)-1])
	}
}

// An unmeasured or non-finite published metric fails the run instead of
// printing a made-up number.
func TestFinishFailsOnMissingMetric(t *testing.T) {
	r := newReport()
	for _, d := range endToEnd {
		r.set(d.Name, d.Unit, 1)
	}
	r.set("latency_ms_tail", "ms", math.NaN())
	res := &Result{}
	r.finish(res)
	if res.Correct {
		t.Error("a NaN metric passed")
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics published, want %d", len(res.Metrics), len(endToEnd))
	}
}

// BENCHMARK.json publishes exactly the metrics simprofbench prints, with
// the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench module: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, simprofbench runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	// The quality metrics repeat exactly for a seed, so their bounds are
	// set from their seed-to-seed spread and must stay tighter than any
	// timing bound: a speed change may not trade away the estimate.
	quality := map[string]bool{"ci_halfwidth_pct": true, "ci_cover_pct": true}
	maxQuality, minTiming := 0.0, 1.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if quality[m.Name] {
			maxQuality = max(maxQuality, m.Bound)
		} else {
			minTiming = min(minTiming, m.Bound)
		}
	}
	if maxQuality >= minTiming {
		t.Errorf("a quality bound (up to %g) is not tighter than every timing bound (from %g)", maxQuality, minTiming)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, simprofbench prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, simprofbench prints %v", layer, perLayer)
	}
}
