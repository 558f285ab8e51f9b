package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one parsed benchmark result line.
type BenchResult struct {
	Pkg  string `json:"pkg,omitempty"`
	Name string `json:"name"` // as printed, e.g. "BenchmarkForm-8"
	// Iters is the b.N the result was measured over.
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Metrics holds every other per-op pair the line reports, keyed by
	// its unit: b.ReportMetric stage times such as "decode-ms/op".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BaseName strips the trailing GOMAXPROCS suffix ("-8") so results
// from machines with different core counts compare under one name.
func (b BenchResult) BaseName() string { return normalizeBenchName(b.Name) }

func normalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// testEvent is the subset of a test2json event the parser needs.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// ParseTestJSON extracts benchmark results from a `go test -json`
// (test2json) stream. test2json may split one benchmark's name and its
// result across several Output events, so the parser reassembles the
// raw output per package before scanning lines — the same reassembly
// scripts/bench.sh performs with awk. Lines that are not valid JSON
// events are scanned as raw benchmark output, so plain `go test
// -bench` output parses too. The parser never fails on malformed
// input; it returns whatever results it could extract.
func ParseTestJSON(r io.Reader) ([]BenchResult, error) {
	perPkg := map[string]*strings.Builder{}
	var pkgOrder []string
	raw := &strings.Builder{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		var ev testEvent
		if strings.HasPrefix(trimmed, "{") && json.Unmarshal([]byte(trimmed), &ev) == nil {
			if ev.Action != "output" || ev.Output == "" {
				continue
			}
			b, ok := perPkg[ev.Package]
			if !ok {
				b = &strings.Builder{}
				perPkg[ev.Package] = b
				pkgOrder = append(pkgOrder, ev.Package)
			}
			b.WriteString(ev.Output)
			continue
		}
		// Not a JSON event: treat as raw benchmark output.
		raw.WriteString(line)
		raw.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: read bench stream: %w", err)
	}

	var out []BenchResult
	for _, pkg := range pkgOrder {
		out = append(out, scanBenchLines(pkg, perPkg[pkg].String())...)
	}
	out = append(out, scanBenchLines("", raw.String())...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Pkg != out[b].Pkg {
			return out[a].Pkg < out[b].Pkg
		}
		return false // keep file order within a package
	})
	return out, nil
}

// scanBenchLines scans reassembled test output for benchmark result
// lines.
func scanBenchLines(pkg, text string) []BenchResult {
	var out []BenchResult
	for _, line := range strings.Split(text, "\n") {
		if r, ok := parseBenchLine(pkg, line); ok {
			out = append(out, r)
		}
	}
	return out
}

// parseBenchLine parses one classic benchmark result line:
//
//	BenchmarkForm-8   100   13055718 ns/op   1197135 B/op   6180 allocs/op
//
// The grammar is: name, iteration count, then (value, unit) pairs. Any
// other "<name>/op" unit lands in Metrics. Lines without an ns/op pair
// are not results (e.g. "BenchmarkX" name echoes from -v runs) and are
// skipped.
func parseBenchLine(pkg, line string) (BenchResult, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || len(fields[0]) <= len("Benchmark") {
		return BenchResult{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return BenchResult{}, false
	}
	r := BenchResult{Pkg: pkg, Name: fields[0], Iters: iters}
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || v < 0 {
			return BenchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		case "MB/s":
			r.MBPerS = v
		default:
			if strings.HasSuffix(fields[i+1], "/op") {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[fields[i+1]] = v
			}
		}
	}
	return r, sawNs
}
