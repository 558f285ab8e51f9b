package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchText renders raw `go test -bench` output with three samples per
// benchmark, each scaled by mul (1.0 = the nominal timings).
func benchText(mul float64) string {
	var b strings.Builder
	b.WriteString("goos: linux\n")
	nominal := map[string]float64{
		"BenchmarkChooseKParallel": 240e6,
		"BenchmarkForm":            13e6,
	}
	for _, name := range []string{"BenchmarkChooseKParallel", "BenchmarkForm"} {
		base := nominal[name] * mul
		for i := 0; i < 3; i++ {
			// ±2% wobble so the baseline MAD is small but non-zero.
			ns := base * (1 + 0.02*float64(i-1))
			fmt.Fprintf(&b, "%s-8\t10\t%.0f ns/op\t1000 B/op\t10 allocs/op\n", name, ns)
		}
	}
	b.WriteString("PASS\n")
	return b.String()
}

// writeFile writes content under dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// handManifest is a small but fully-formed v2 manifest used by the
// history tests, parameterized on the sampling SE so diffs show drift.
func handManifest(se float64) string {
	return fmt.Sprintf(`{
  "version": 2,
  "tool": "simprof compare",
  "build": {"go_version": "go1.24", "revision": "abc123def4567890"},
  "workload": {"benchmark": "wc", "framework": "spark", "seed": 7,
    "workers": 4, "units": 100, "unit_instr": 100000000, "oracle_cpi": 1.5,
    "degraded_fraction": 0},
  "sampling": {"method": "SimProf", "n": 12, "confidence": 0.997,
    "est_cpi": 1.48, "se": %g, "ci_lo": 1.40, "ci_hi": 1.56,
    "oracle_cpi": 1.5, "rel_err": 0.013},
  "metrics": [
    {"name": "cluster.iterations", "kind": "counter", "value": 42}
  ],
  "spans": {"name": "simprof compare", "start_ns": 0, "dur_ns": 5000000, "gid": 1,
    "children": [
      {"name": "phase.form", "start_ns": 100, "dur_ns": 3000000, "gid": 1},
      {"name": "sampling.simprof", "start_ns": 3100000, "dur_ns": 1000000, "gid": 1}
    ]},
  "timer_samples": [
    {"name": "cluster.choosek_restart_seconds", "gid": 7, "start_ns": 200, "dur_ns": 900000},
    {"name": "cluster.choosek_restart_seconds", "gid": 8, "start_ns": 250, "dur_ns": 950000}
  ]
}`, se)
}

// TestHistoryFlagValidation checks the history subcommands fail through
// the uniform usage-error path.
func TestHistoryFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no-sub", nil, "usage: simprof history"},
		{"unknown-sub", []string{"prune"}, `unknown subcommand "prune"`},
		{"record/no-input", []string{"record"}, "at least one of -manifest or -bench"},
		{"record/unknown-flag", []string{"record", "-wat"}, "usage: simprof history record"},
		{"gate/no-baseline", []string{"gate", "-bench", "x.json"}, "-baseline is required"},
		{"gate/no-bench", []string{"gate", "-baseline", "x.json"}, "-bench is required"},
		{"gate/bad-per-bench", []string{"gate", "-baseline", "x", "-bench", "y", "-per-bench", "oops"}, "usage: simprof history gate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdHistory(tc.args)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "usage: simprof history") {
				t.Fatalf("error %q does not use the uniform usage prefix", err)
			}
		})
	}
}

// TestHistoryRoundTrip exercises record → list → show → diff on a real
// store file with hand-made manifests and raw bench text.
func TestHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "hist.jsonl")
	m1 := writeFile(t, dir, "m1.json", handManifest(0.04))
	m2 := writeFile(t, dir, "m2.json", handManifest(0.06))
	b1 := writeFile(t, dir, "b1.txt", benchText(1.0))
	b2 := writeFile(t, dir, "b2.txt", benchText(1.05))

	if err := cmdHistory([]string{"record", "-store", store, "-manifest", m1, "-bench", b1, "-note", "baseline"}); err != nil {
		t.Fatalf("record #1: %v", err)
	}
	if err := cmdHistory([]string{"record", "-store", store, "-manifest", m2, "-bench", b2}); err != nil {
		t.Fatalf("record #2: %v", err)
	}
	for _, args := range [][]string{
		{"list", "-store", store},
		{"show", "-store", store, "-seq", "1"},
		{"show", "-store", store}, // default: last
		{"diff", "-store", store}, // default: -2 vs -1
		{"diff", "-store", store, "-a", "1", "-b", "2"},
	} {
		if err := cmdHistory(args); err != nil {
			t.Fatalf("history %v: %v", args, err)
		}
	}
	if err := cmdHistory([]string{"show", "-store", store, "-seq", "99"}); err == nil {
		t.Fatal("show -seq 99 on a 2-record store should fail")
	}
}

// TestHistoryGate checks the acceptance contract: the gate passes a
// run identical to its baseline and fails a synthetic 2× slowdown.
func TestHistoryGate(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.txt", benchText(1.0))
	same := writeFile(t, dir, "same.txt", benchText(1.0))
	slow := writeFile(t, dir, "slow.txt", benchText(2.0))

	if err := cmdHistory([]string{"gate", "-baseline", base, "-bench", same}); err != nil {
		t.Fatalf("gate on identical results: %v", err)
	}
	err := cmdHistory([]string{"gate", "-baseline", base, "-bench", slow})
	if err == nil {
		t.Fatal("gate passed a 2× synthetic slowdown")
	}
	if !strings.Contains(err.Error(), "perf gate failed") {
		t.Fatalf("gate failure reads %q", err)
	}

	// A generous per-bench override waves the slow benchmarks through.
	if err := cmdHistory([]string{"gate", "-baseline", base, "-bench", slow,
		"-per-bench", "BenchmarkChooseKParallel=1.5,BenchmarkForm=1.5"}); err != nil {
		t.Fatalf("gate with per-bench overrides: %v", err)
	}

	// SE gate: manifest SE inflating 0.04 → 0.06 is +50%, over a 20% cap.
	m1 := writeFile(t, dir, "m1.json", handManifest(0.04))
	m2 := writeFile(t, dir, "m2.json", handManifest(0.06))
	err = cmdHistory([]string{"gate", "-baseline", base, "-bench", same,
		"-base-manifest", m1, "-cur-manifest", m2, "-max-se-inflation", "0.2"})
	if err == nil {
		t.Fatal("SE gate passed a +50% inflation with a 20% cap")
	}
}

// TestInspectStrippedManifest checks inspect degrades hand-stripped and
// version-skewed manifests to notes instead of failing or panicking.
func TestInspectStrippedManifest(t *testing.T) {
	dir := t.TempDir()

	// All optional sections stripped by hand.
	bare := writeFile(t, dir, "bare.json", `{"version": 2, "tool": "simprof phases", "build": {"go_version": "", "revision": ""}}`)
	if err := cmdInspect([]string{"-manifest", bare}); err != nil {
		t.Fatalf("inspect on stripped manifest: %v", err)
	}

	// Written by a future binary: renders with a note.
	future := writeFile(t, dir, "future.json", `{"version": 99, "tool": "simprof compare", "build": {"go_version": "go9", "revision": "f00"}}`)
	if err := cmdInspect([]string{"-manifest", future}); err != nil {
		t.Fatalf("inspect on future-version manifest: %v", err)
	}

	// Nonsense version and malformed JSON still fail.
	bad := writeFile(t, dir, "bad.json", `{"version": 0, "tool": "x"}`)
	if err := cmdInspect([]string{"-manifest", bad}); err == nil {
		t.Fatal("inspect accepted manifest version 0")
	}
	trunc := writeFile(t, dir, "trunc.json", `{"version": 2,`)
	if err := cmdInspect([]string{"-manifest", trunc}); err == nil {
		t.Fatal("inspect accepted truncated JSON")
	}
}
