package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simprof/internal/obs"
)

// labeledManifest builds the fixed manifest behind
// testdata/inspect.golden: a simprofd profile manifest with a span tree
// and a metric snapshot whose labeled children are wider than any bare
// metric name — pinning the name{labels} column alignment.
func labeledManifest(t *testing.T) *obs.Manifest {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	r := obs.NewRegistry()
	r.Counter("server.requests", "requests").Add(128)
	hv := r.HistogramVec("server.request_seconds", "request latency by route",
		[]string{"route"}, 0.001, 0.005, 0.01, 0.05, 0.1)
	for i := 0; i < 100; i++ {
		hv.With("/v1/profile").Observe(0.001 + float64(i)*0.001)
	}
	hv.With("/v1/history").Observe(0.002)
	cv := r.CounterVec("server.errors_by_class", "typed errors", "class", "route")
	cv.With("unavailable", "/v1/profile").Add(17)
	cv.With("timeout", "/v1/profile").Add(3)

	return &obs.Manifest{
		Version: obs.ManifestVersion,
		Tool:    "simprofd profile",
		Build:   obs.BuildInfo{GoVersion: "go1.0test", Revision: "deadbeefcafe0123"},
		Metrics: r.Snapshot(),
		Spans: &obs.Span{
			Name: "profile", StartNS: 0, DurNS: 612_250_000, GID: 1,
			Children: []*obs.Span{
				{Name: "phase.form", StartNS: 1_000_000, DurNS: 420_000_000, GID: 1},
				{Name: "sampling.simprof", StartNS: 421_000_000, DurNS: 150_000_000, GID: 1},
			},
		},
	}
}

// TestInspectGolden pins the rendered inspect output for a manifest
// byte-for-byte (aligned labeled-vec rows with p50/p90/p99, span tree,
// hot stages). Regenerate with UPDATE_GOLDEN=1 after an intentional
// format change.
func TestInspectGolden(t *testing.T) {
	var buf bytes.Buffer
	renderManifest(&buf, labeledManifest(t), "", true)

	golden := filepath.Join("testdata", "inspect.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("inspect output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestInspectLabeledVecAlignment: every metric row's value column
// starts at the same offset even when labeled children are far wider
// than the bare names, and labeled histograms carry quantiles.
func TestInspectLabeledVecAlignment(t *testing.T) {
	var buf bytes.Buffer
	renderManifest(&buf, labeledManifest(t), "", true)
	out := buf.String()

	if !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=") {
		t.Fatalf("labeled histogram rows lack quantiles:\n%s", out)
	}
	var inMetrics bool
	col := -1
	for _, line := range strings.Split(out, "\n") {
		if line == "metrics:" {
			inMetrics = true
			continue
		}
		if !inMetrics || !strings.HasPrefix(line, "  ") {
			continue
		}
		name := strings.TrimLeft(line, " ")
		valueCol := len(line) - len(name) + strings.IndexAny(name, " ")
		rest := line[valueCol:]
		pad := len(rest) - len(strings.TrimLeft(rest, " "))
		start := valueCol + pad
		if col == -1 {
			col = start
		} else if start != col {
			t.Fatalf("value column drifts: %d then %d on %q\n%s", col, start, line, out)
		}
	}
	if col == -1 {
		t.Fatalf("no metric rows rendered:\n%s", out)
	}
}
