package traceevent

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"simprof/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace file")

// fixedManifest builds a manifest with hand-set span and sample times,
// so its trace export is byte-deterministic.
func fixedManifest() *obs.Manifest {
	root := &obs.Span{Name: "simprof compare", StartNS: 0, DurNS: 5_000_000, GID: 1}
	form := &obs.Span{Name: "phase.form", StartNS: 100_000, DurNS: 3_000_000, GID: 1}
	cluster := &obs.Span{Name: "phase.cluster", StartNS: 600_000, DurNS: 2_000_000, GID: 1}
	sampleSpan := &obs.Span{Name: "sampling.simprof", StartNS: 3_500_000, DurNS: 1_200_000, GID: 1}
	form.Children = []*obs.Span{cluster}
	root.Children = []*obs.Span{form, sampleSpan}
	return &obs.Manifest{
		Version: obs.ManifestVersion,
		Tool:    "simprof compare",
		Spans:   root,
		TimerSamples: []obs.TimerSample{
			{Name: "cluster.choosek_restart_seconds", GID: 7, StartNS: 700_000, DurNS: 400_000},
			{Name: "cluster.choosek_restart_seconds", GID: 8, StartNS: 750_000, DurNS: 900_000},
			{Name: "cluster.choosek_restart_seconds", GID: 7, StartNS: 1_200_000, DurNS: 300_000},
		},
	}
}

// TestTraceEventGolden pins the exact bytes the exporter produces for a
// fixed manifest. Regenerate with `go test ./internal/obs/traceevent
// -run TestTraceEventGolden -update` after an intentional format
// change.
func TestTraceEventGolden(t *testing.T) {
	f := FromManifest(fixedManifest())
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace export drifted from golden file (run with -update after intentional changes)\ngot:\n%s", buf.String())
	}
}

// TestTraceEventSchema checks the structural contract of the export:
// valid phases, metadata lanes for every tid, stage events mirroring
// the span tree and timer events mirroring the samples, with durations
// that sum-match the manifest.
func TestTraceEventSchema(t *testing.T) {
	m := fixedManifest()
	f := FromManifest(m)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}

	// Round-trips through its own decoder.
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded file invalid: %v", err)
	}
	if len(back.TraceEvents) != len(f.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.TraceEvents), len(f.TraceEvents))
	}

	var stages, timers, meta int
	lanes := map[int64]bool{}
	named := map[int64]bool{}
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "M":
			meta++
			if e.Name == "thread_name" {
				named[e.TID] = true
			}
		case e.Cat == "stage":
			stages++
			lanes[e.TID] = true
		case e.Cat == "timer":
			timers++
			lanes[e.TID] = true
		}
	}
	if stages != 4 {
		t.Errorf("stage events = %d, want 4 (one per span)", stages)
	}
	if timers != len(m.TimerSamples) {
		t.Errorf("timer events = %d, want %d", timers, len(m.TimerSamples))
	}
	for tid := range lanes {
		if !named[tid] {
			t.Errorf("lane %d has no thread_name metadata", tid)
		}
	}

	// Span durations sum-match the manifest span tree.
	var wantUS float64
	m.Spans.Walk(func(sp *obs.Span, depth int) { wantUS += float64(sp.DurNS) / 1e3 })
	if got := f.SpanDurUS(); math.Abs(got-wantUS) > 1e-6 {
		t.Errorf("stage durations sum to %vµs, span tree sums to %vµs", got, wantUS)
	}
}

// TestTraceEventDegenerate checks empty inputs stay valid: no spans,
// no samples, nil manifest.
func TestTraceEventDegenerate(t *testing.T) {
	for name, m := range map[string]*obs.Manifest{
		"nil":          nil,
		"empty":        {},
		"samples-only": {TimerSamples: []obs.TimerSample{{Name: "x", GID: 3, DurNS: 10}}},
	} {
		f := FromManifest(m)
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(f.TraceEvents) == 0 {
			t.Errorf("%s: no events at all (want at least process metadata)", name)
		}
	}
}

// TestWriteFile exercises the file path used by the CLI.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFile(path, fixedManifest()); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	f, err := Decode(fh)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}
