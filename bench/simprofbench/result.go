package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark publishes. BENCHMARK.json lists
// the same names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of SimProf sees, printed by an
// untraced run. Every workload reports every one of them, so each is
// defined for both an in-process profile and a simprofd request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"throughput_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
	{"ci_halfwidth_pct", "%"},
	{"ci_cover_pct", "%"},
}

// perLayer are the per-layer metrics a traced run prints. Every workload
// reports every one; a layer the workload never reaches reports a zero
// count or share, never a made-up time.
var perLayer = []metricDef{
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.conn_wait_pct", "%"},
	{"trace.decode_ms_p50", "ms"},
	{"trace.decode_mb_s", "MB/s"},
	{"tracebin.zero_copy_pct", "%"},
	{"phase.form_ms_p50", "ms"},
	{"phase.form_self_ms_p50", "ms"},
	{"phase.freq_adopted_pct", "%"},
	{"stats.fregression_ms_p50", "ms"},
	{"cluster.choosek_ms_p50", "ms"},
	{"cluster.ks_per_sweep", "count"},
	{"cluster.lloyd_iters_mean", "count"},
	{"cluster.dist_pruned_pct", "%"},
	{"cluster.k_chosen_mean", "count"},
	{"sampling.simprof_ms_p50", "ms"},
	{"sampling.estimate_ms_p50", "ms"},
	{"sampling.imputed_strata", "count"},
	{"sampling.cpi_err_pct", "%"},
	{"parallel.chunks_per_op", "count"},
	{"parallel.helper_denied_pct", "%"},
	{"pipeline.alloc_mb_per_op", "MB"},
	{"server.transport_pct", "%"},
	{"server.exec_pct", "%"},
	{"batch.enqueue_wait_pct", "%"},
	{"batch.hit_pct", "%"},
	{"batch.coalesced_pct", "%"},
	{"batch.flush_size_mean", "count"},
	{"batch.evictions", "count"},
	{"history.append_pct", "%"},
	{"history.fsyncs", "count"},
	{"history.store_mb_end", "MB"},
	{"resilience.admit_rejected", "count"},
	{"resilience.retries", "count"},
	{"resilience.breaker_opens", "count"},
	{"obs.traced_overhead_pct", "%"},
	{"ledger.stage_sum_pct", "%"},
}

// Check is one correctness check of a run.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is the file a run writes: what ran, on what, whether its
// outputs were correct, and every number it measured. Metrics holds the
// published metrics of the run's mode; Ledger adds the supporting
// numbers (absolute per-layer times, sample counts, limits).
type Result struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Scale      string  `json:"scale"`
	Revision   string  `json:"revision"`
	Modified   bool    `json:"modified"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Started    string  `json:"started"`

	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []Check `json:"checks"`
	Digest    string  `json:"digest"`
	DigestOps int     `json:"digest_ops"`

	Metrics map[string]Metric `json:"metrics"`
	Ledger  map[string]Metric `json:"ledger,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report collects a run's checks and measurements.
type report struct {
	checks []Check
	values map[string]Metric
	digest hashLines
}

func newReport() *report { return &report{values: map[string]Metric{}} }

func (r *report) set(name, unit string, v float64) { r.values[name] = Metric{v, unit} }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// finish splits the measurements into the published set for the run's
// mode and the ledger, and judges correctness. A published metric that
// was not measured, or is not finite, fails the run.
func (r *report) finish(res *Result) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	res.Metrics = map[string]Metric{}
	var missing []string
	for _, d := range defs {
		m, ok := r.values[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.Name)
			m = Metric{0, d.Unit}
		}
		res.Metrics[d.Name] = m
	}
	if len(missing) > 0 {
		r.check("metrics measured", false, "missing or not finite: %v", missing)
	}
	res.Ledger = map[string]Metric{}
	for name, m := range r.values {
		if _, published := res.Metrics[name]; !published && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			res.Ledger[name] = m
		}
	}
	res.Checks = r.checks
	res.Correct = true
	for _, c := range r.checks {
		res.Correct = res.Correct && c.OK
	}
	res.Digest, res.DigestOps = r.digest.sum()
}

// hashLines is an order-sensitive digest of output lines.
type hashLines struct{ lines []string }

func (h *hashLines) add(line string) { h.lines = append(h.lines, line) }

func (h *hashLines) sum() (string, int) {
	s := sha256.New()
	for _, l := range h.lines {
		s.Write([]byte(l))
		s.Write([]byte{'\n'})
	}
	return hex.EncodeToString(s.Sum(nil)), len(h.lines)
}

// writeResult writes res as indented JSON into dir, named by workload,
// seed and mode, and returns the path.
func writeResult(dir string, res *Result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := 0
	if res.Traced {
		mode = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, mode))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResult loads a result file.
func readResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
