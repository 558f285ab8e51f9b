package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simprof/internal/cli"
	"simprof/internal/core"
	"simprof/internal/obs"
	"simprof/internal/obs/traceevent"
	"simprof/internal/trace"
	"simprof/internal/workloads"
)

// TestFlagValidation checks that every bad flag value fails through the
// uniform "usage: simprof <cmd>: ..." error path — no panics, no silent
// defaults, no os.Exit from inside flag parsing.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string) error
		args []string
		want string
	}{
		{"profile/no-out", cmdProfile, []string{"-bench", "wc"}, "usage: simprof profile"},
		{"profile/bad-bench", cmdProfile, []string{"-bench", "nope", "-out", os.DevNull}, `unknown -bench "nope"`},
		{"profile/bad-framework", cmdProfile, []string{"-framework", "flink", "-out", os.DevNull}, `unknown -framework "flink"`},
		{"profile/bad-faults", cmdProfile, []string{"-out", os.DevNull, "-faults", "bogus=="}, "usage: simprof profile"},
		{"profile/unknown-flag", cmdProfile, []string{"-wat"}, "usage: simprof profile"},
		{"profile/bad-format", cmdProfile, []string{"-out", os.DevNull, "-format", "xml"}, `unknown -format "xml"`},
		{"phases/no-trace", cmdPhases, []string{}, "usage: simprof phases"},
		{"sample/no-trace", cmdSample, []string{"-n", "5"}, "usage: simprof sample"},
		{"sample/zero-n", cmdSample, []string{"-trace", "x.gob", "-n", "0"}, "-n must be positive"},
		{"sample/neg-n", cmdSample, []string{"-trace", "x.gob", "-n", "-3"}, "-n must be positive"},
		{"sample/bad-confidence", cmdSample, []string{"-trace", "x.gob", "-confidence", "1.5"}, "-confidence must be in (0,1)"},
		{"plan/no-trace", cmdPlan, []string{}, "usage: simprof plan"},
		{"plan/err-zero", cmdPlan, []string{"-trace", "x.gob", "-err", "0"}, "-err must be in (0,1)"},
		{"plan/err-one", cmdPlan, []string{"-trace", "x.gob", "-err", "1"}, "-err must be in (0,1)"},
		{"compare/zero-n", cmdCompare, []string{"-trace", "x.gob", "-n", "0"}, "-n must be positive"},
		{"sensitivity/bad-bench", cmdSensitivity, []string{"-bench", "wc"}, "-bench must be cc or rank"},
		{"sensitivity/bad-framework", cmdSensitivity, []string{"-bench", "cc", "-framework", "f"}, `unknown -framework "f"`},
		{"inspect/no-manifest", cmdInspect, []string{}, "usage: simprof inspect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(tc.args)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "usage: simprof "+strings.SplitN(tc.name, "/", 2)[0]) {
				t.Fatalf("error %q does not use the uniform usage prefix", err)
			}
		})
	}
}

// TestHelpFlag checks -h prints usage and resolves to cli.ErrHelp (exit 0),
// not a failure.
func TestHelpFlag(t *testing.T) {
	if err := cmdSample([]string{"-h"}); err != cli.ErrHelp {
		t.Fatalf("-h: got %v, want cli.ErrHelp", err)
	}
}

// smallTrace profiles a scaled-down wc_spark run and writes it as a gob
// trace for CLI tests.
func smallTrace(t *testing.T) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 7
	opts := workloads.Options{Cores: 4, TextBytes: 48 << 20}
	in, err := workloads.DefaultInput("wc", opts)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.ProfileWorkload("wc", "spark", in, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wc_sp.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.EncodeGob(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProfileFormats checks the -format flag and the extension defaults
// on 'simprof profile', and that every written file loads back through
// loadTrace's magic-byte detection regardless of its extension. JSON is
// not a trace format: asking for it, by flag or by a .json output, is a
// usage error naming the formats, and writes no file.
func TestProfileFormats(t *testing.T) {
	dir := t.TempDir()
	have := "(have: " + strings.Join(trace.FormatNames(), " ") + ")"
	cases := []struct {
		name      string
		out       string
		format    string
		wantMagic string
		wantUsage string // non-empty: a usage error containing this
	}{
		{"ext-bin", "wc.bin", "", "SPTB", ""},
		{"ext-json", "wc.json", "", "", "traces are not written as JSON " + have},
		{"ext-gob", "wc.gob", "", "", ""},
		{"explicit-bin-odd-ext", "wc2.gob", "bin", "SPTB", ""},
		{"explicit-json-odd-ext", "wc2.trace", "json", "", `unknown -format "json" ` + have},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.out)
			args := []string{"-bench", "wc", "-framework", "spark", "-seed", "7",
				"-textbytes", "50331648", "-out", out}
			if tc.format != "" {
				args = append(args, "-format", tc.format)
			}
			err := cmdProfile(args)
			if tc.wantUsage != "" {
				if err == nil || !strings.HasPrefix(err.Error(), "usage: simprof profile") ||
					!strings.Contains(err.Error(), tc.wantUsage) {
					t.Fatalf("profile: got %v, want a usage error containing %q", err, tc.wantUsage)
				}
				if _, err := os.Stat(out); !os.IsNotExist(err) {
					t.Fatalf("a rejected -out was written (stat: %v)", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantMagic != "" && !strings.HasPrefix(string(data), tc.wantMagic) {
				t.Fatalf("file starts with % x, want prefix %q", data[:8], tc.wantMagic)
			}
			tr, err := loadTrace(out)
			if err != nil {
				t.Fatalf("loadTrace: %v", err)
			}
			if len(tr.Units) == 0 {
				t.Fatal("loaded trace has no units")
			}
		})
	}
}

// TestLoadTraceErrors checks truncated and foreign files fail with
// errors that name the file and the problem, not a panic or a bare EOF.
func TestLoadTraceErrors(t *testing.T) {
	dir := t.TempDir()
	trunc := filepath.Join(dir, "trunc.bin")
	if err := os.WriteFile(trunc, []byte("SPTB\x01\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "foreign.trace")
	if err := os.WriteFile(foreign, []byte("\x7fELF not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, want string }{
		{trunc, "truncated"},
		{foreign, "unrecognized trace format"},
		{filepath.Join(dir, "missing.bin"), "no such file"},
	} {
		_, err := loadTrace(tc.path)
		if err == nil {
			t.Fatalf("%s: expected error containing %q, got nil", tc.path, tc.want)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not contain %q", tc.path, err, tc.want)
		}
	}
}

// TestCompareTelemetryInspectRoundTrip runs 'simprof compare -telemetry'
// against a real (small) trace, decodes the manifest it wrote, checks
// the structured sections, and renders it back through 'simprof
// inspect'.
func TestCompareTelemetryInspectRoundTrip(t *testing.T) {
	defer obs.Disable()
	trPath := smallTrace(t)
	mPath := filepath.Join(t.TempDir(), "run.json")

	args := []string{"-trace", trPath, "-n", "12", "-seed", "7", "-telemetry", mPath}
	if err := cmdCompare(args); err != nil {
		t.Fatalf("compare: %v", err)
	}

	m, note, err := obs.ReadManifestFileLenient(mPath)
	if err != nil || note != "" {
		t.Fatalf("read manifest: %v (version note %q)", err, note)
	}
	if m.Tool != "simprof compare" {
		t.Errorf("tool = %q", m.Tool)
	}
	if m.Build.GoVersion == "" {
		t.Error("build info missing go version")
	}
	if m.Workload == nil || m.Workload.Benchmark != "wc" || m.Workload.Units == 0 {
		t.Errorf("workload section incomplete: %+v", m.Workload)
	}
	if m.Phases == nil || m.Phases.K < 1 || len(m.Phases.KScores) == 0 {
		t.Fatalf("phase section incomplete: %+v", m.Phases)
	}
	if m.Sampling == nil || m.Sampling.Method != "SimProf" || m.Sampling.N != 12 {
		t.Fatalf("sampling section incomplete: %+v", m.Sampling)
	}
	if len(m.Sampling.Strata) != m.Phases.K {
		t.Errorf("allocation table has %d rows, want k=%d", len(m.Sampling.Strata), m.Phases.K)
	}
	total := 0
	for _, s := range m.Sampling.Strata {
		total += s.Alloc
	}
	if total != m.Sampling.N {
		t.Errorf("allocations sum to %d, want n=%d", total, m.Sampling.N)
	}
	if m.Sampling.CILo > m.Sampling.EstCPI || m.Sampling.CIHi < m.Sampling.EstCPI {
		t.Errorf("CI [%v, %v] does not bracket estimate %v", m.Sampling.CILo, m.Sampling.CIHi, m.Sampling.EstCPI)
	}
	if m.Spans == nil || len(m.Spans.Children) == 0 {
		t.Fatal("manifest has no span tree")
	}
	found := map[string]bool{}
	m.Spans.Walk(func(sp *obs.Span, depth int) { found[sp.Name] = true })
	for _, want := range []string{"simprof compare", "phase.form", "phase.cluster", "sampling.simprof"} {
		if !found[want] {
			t.Errorf("span tree missing %q", want)
		}
	}
	if len(m.Metrics) == 0 {
		t.Error("manifest has no metrics")
	}

	if err := cmdInspect([]string{"-manifest", mPath}); err != nil {
		t.Fatalf("inspect: %v", err)
	}

	// Export the same manifest as Chrome trace events via inspect and
	// check the schema plus the span-duration sum-match invariant.
	tPath := filepath.Join(t.TempDir(), "run_trace.json")
	if err := cmdInspect([]string{"-manifest", mPath, "-trace", tPath}); err != nil {
		t.Fatalf("inspect -trace: %v", err)
	}
	tf, err := os.Open(tPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	file, err := traceevent.Decode(tf)
	if err != nil {
		t.Fatalf("decode trace export: %v", err)
	}
	if err := file.Validate(); err != nil {
		t.Fatalf("trace export fails schema check: %v", err)
	}
	spanCount := 0
	var wantUS float64
	m.Spans.Walk(func(sp *obs.Span, depth int) {
		spanCount++
		wantUS += float64(sp.DurNS) / 1e3
	})
	stageEvents := 0
	for _, e := range file.TraceEvents {
		if e.Cat == "stage" {
			stageEvents++
		}
	}
	if stageEvents != spanCount {
		t.Errorf("trace has %d stage events, manifest has %d spans", stageEvents, spanCount)
	}
	if got := file.SpanDurUS(); math.Abs(got-wantUS) > 1e-3*float64(spanCount) {
		t.Errorf("stage durations sum to %.3fµs, manifest spans sum to %.3fµs", got, wantUS)
	}
}

// TestCompareMatchesSample: on the same -trace, -n and -seed, the
// SimProf row of 'simprof compare' is the sample 'simprof sample'
// draws, so both report the same estimate (read from their manifests).
func TestCompareMatchesSample(t *testing.T) {
	defer obs.Disable()
	trPath := smallTrace(t)
	dir := t.TempDir()
	est := map[string]float64{}
	for name, run := range map[string]func([]string) error{"compare": cmdCompare, "sample": cmdSample} {
		mPath := filepath.Join(dir, name+".json")
		if err := run([]string{"-trace", trPath, "-n", "20", "-seed", "42", "-telemetry", mPath}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, _, err := obs.ReadManifestFileLenient(mPath)
		if err != nil {
			t.Fatalf("%s manifest: %v", name, err)
		}
		if m.Sampling == nil || m.Sampling.Method != "SimProf" || m.Sampling.N != 20 {
			t.Fatalf("%s: sampling section %+v", name, m.Sampling)
		}
		est[name] = m.Sampling.EstCPI
	}
	if est["compare"] != est["sample"] {
		t.Fatalf("compare estimates CPI %v, sample %v", est["compare"], est["sample"])
	}
}

// TestProfileTraceExport checks 'simprof profile -trace' writes a
// loadable trace-event file alongside the workload trace.
func TestProfileTraceExport(t *testing.T) {
	defer obs.Disable()
	dir := t.TempDir()
	out := filepath.Join(dir, "wc.gob")
	tPath := filepath.Join(dir, "profile_trace.json")
	args := []string{"-bench", "wc", "-framework", "spark", "-seed", "7",
		"-textbytes", "50331648", "-out", out, "-trace", tPath}
	if err := cmdProfile(args); err != nil {
		t.Fatalf("profile: %v", err)
	}
	tf, err := os.Open(tPath)
	if err != nil {
		t.Fatalf("profile -trace wrote nothing: %v", err)
	}
	defer tf.Close()
	file, err := traceevent.Decode(tf)
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Validate(); err != nil {
		t.Fatalf("trace export fails schema check: %v", err)
	}
	stages := 0
	for _, e := range file.TraceEvents {
		if e.Cat == "stage" {
			stages++
		}
	}
	if stages == 0 {
		t.Error("profile trace export has no stage events")
	}
}

// TestProfileFaultManifest checks that 'simprof profile -faults
// -telemetry' records the fault channel counts in the manifest.
func TestProfileFaultManifest(t *testing.T) {
	defer obs.Disable()
	dir := t.TempDir()
	out := filepath.Join(dir, "wc.gob")
	mPath := filepath.Join(dir, "profile.json")
	args := []string{"-bench", "wc", "-framework", "spark", "-seed", "7",
		"-textbytes", "50331648", "-faults", "rate=0.08", "-out", out, "-telemetry", mPath}
	if err := cmdProfile(args); err != nil {
		t.Fatalf("profile: %v", err)
	}
	m, note, err := obs.ReadManifestFileLenient(mPath)
	if err != nil || note != "" {
		t.Fatalf("read manifest: %v (version note %q)", err, note)
	}
	if m.Faults == nil {
		t.Fatal("manifest has no fault section")
	}
	if m.Faults.Spec == "" || m.Faults.Seed == 0 {
		t.Errorf("fault provenance incomplete: %+v", m.Faults)
	}
	injected := m.Faults.CountersDropped + m.Faults.Multiplexed + m.Faults.SnapshotsLost +
		m.Faults.UnitsLost + m.Faults.Duplicated + m.Faults.Displaced
	if injected == 0 {
		t.Error("rate=0.08 injected nothing")
	}
	if m.Workload == nil || m.Workload.DegradedFraction == 0 {
		t.Errorf("workload degraded fraction not recorded: %+v", m.Workload)
	}
}
