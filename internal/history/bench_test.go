package history

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseTestJSONSplitOutput parses the golden test2json fixture in
// which benchmark names and their result fields arrive in separate
// Output events (the same splitting scripts/bench.sh reassembles with
// awk), across several packages.
func TestParseTestJSONSplitOutput(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "bench_split.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs, err := ParseTestJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rs), rs)
	}
	byName := map[string][]BenchResult{}
	for _, r := range rs {
		byName[r.BaseName()] = append(byName[r.BaseName()], r)
	}

	choose := byName["BenchmarkChooseKParallel"]
	if len(choose) != 2 {
		t.Fatalf("ChooseKParallel has %d samples, want 2", len(choose))
	}
	if choose[0].NsPerOp != 248626610 || choose[1].NsPerOp != 251110042 {
		t.Errorf("ChooseKParallel ns/op = %v, %v", choose[0].NsPerOp, choose[1].NsPerOp)
	}
	if choose[0].Pkg != "simprof/internal/cluster" {
		t.Errorf("ChooseKParallel pkg = %q", choose[0].Pkg)
	}
	if choose[0].Iters != 100 || choose[0].BytesPerOp != 5832864 || choose[0].AllocsPerOp != 5100 {
		t.Errorf("ChooseKParallel fields: %+v", choose[0])
	}

	form := byName["BenchmarkForm"]
	if len(form) != 1 || form[0].NsPerOp != 13055718 || form[0].AllocsPerOp != 6180 {
		t.Fatalf("Form (split across three events) parsed wrong: %+v", form)
	}

	tel := byName["BenchmarkTelemetryDisabled/counter"]
	if len(tel) != 1 || tel[0].NsPerOp != 2.1 || tel[0].AllocsPerOp != 0 {
		t.Fatalf("sub-benchmark with -8 suffix parsed wrong: %+v", tel)
	}
	if tel[0].Name != "BenchmarkTelemetryDisabled/counter-8" {
		t.Errorf("full name not preserved: %q", tel[0].Name)
	}
}

// TestParseRawBenchOutput checks that plain `go test -bench` text (no
// JSON framing) parses too, and that non-result lines are skipped.
func TestParseRawBenchOutput(t *testing.T) {
	raw := `goos: linux
BenchmarkForm-8   	     100	  13055718 ns/op	 1197135 B/op	    6180 allocs/op
BenchmarkEncode   	  50	  200.5 ns/op	 512.0 MB/s
PASS
ok  	simprof/internal/phase	1.5s
Benchmark
BenchmarkNoResultLine
BenchmarkBadIters	abc	5 ns/op
`
	rs, err := ParseTestJSON(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(rs), rs)
	}
	if rs[0].Name != "BenchmarkForm-8" || rs[0].BaseName() != "BenchmarkForm" {
		t.Errorf("name/base = %q/%q", rs[0].Name, rs[0].BaseName())
	}
	if rs[1].MBPerS != 512 || rs[1].NsPerOp != 200.5 {
		t.Errorf("MB/s pair parsed wrong: %+v", rs[1])
	}
}

// TestParseCustomMetrics: the b.ReportMetric pairs of a result line are
// kept beside the standard ones. The input is a BenchmarkEndToEnd100k
// event as BENCH_pipeline.json records it, split across two output
// events the way test2json splits it.
func TestParseCustomMetrics(t *testing.T) {
	stream := `{"Action":"output","Package":"simprof/internal/tracebin","Test":"BenchmarkEndToEnd100k","Output":"BenchmarkEndToEnd100k-2   \t"}
{"Action":"output","Package":"simprof/internal/tracebin","Test":"BenchmarkEndToEnd100k","Output":"      18\t  31077874 ns/op\t        12.01 decode-ms/op\t         0.004079 estimate-ms/op\t        16.62 form-ms/op\t         2.452 simprof-ms/op\t24007545 B/op\t    1609 allocs/op\n"}
`
	rs, err := ParseTestJSON(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("parsed %d results, want 1: %+v", len(rs), rs)
	}
	r := rs[0]
	if r.Name != "BenchmarkEndToEnd100k-2" || r.Iters != 18 || r.NsPerOp != 31077874 ||
		r.BytesPerOp != 24007545 || r.AllocsPerOp != 1609 {
		t.Errorf("standard pairs parsed wrong: %+v", r)
	}
	want := map[string]float64{
		"decode-ms/op": 12.01, "estimate-ms/op": 0.004079, "form-ms/op": 16.62, "simprof-ms/op": 2.452,
	}
	if !reflect.DeepEqual(r.Metrics, want) {
		t.Errorf("metrics = %v, want %v", r.Metrics, want)
	}
	raw, err := ParseTestJSON(strings.NewReader("BenchmarkForm-8   100   13055718 ns/op   6180 allocs/op\n"))
	if err != nil || len(raw) != 1 || raw[0].Metrics != nil {
		t.Errorf("a line without custom pairs: %+v, %v; want nil Metrics", raw, err)
	}
}

func TestNormalizeBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkForm-8":          "BenchmarkForm",
		"BenchmarkForm":            "BenchmarkForm",
		"BenchmarkA/sub-case-16":   "BenchmarkA/sub-case",
		"BenchmarkTrailing-dash-x": "BenchmarkTrailing-dash-x",
	}
	for in, want := range cases {
		if got := normalizeBenchName(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}
