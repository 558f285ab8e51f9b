package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs fn with telemetry on, restoring the prior state.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	fn()
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.count", "events")
	g := r.Gauge("test.gauge", "level")
	h := r.Histogram("test.hist", "sizes", 1, 10, 100)

	// Disabled: records nothing.
	Disable()
	c.Inc()
	g.Set(3)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled telemetry recorded: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}

	withEnabled(t, func() {
		c.Add(2)
		c.Inc()
		g.Set(1.5)
		g.Set(2.5)
		for _, v := range []float64{0.5, 1, 5, 50, 500} {
			h.Observe(v)
		}
	})
	if c.Value() != 3 {
		t.Errorf("counter=%d, want 3", c.Value())
	}
	if g.Value() != 2.5 {
		t.Errorf("gauge=%v, want 2.5", g.Value())
	}
	if h.Count() != 5 || h.Sum() != 556.5 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	// Sorted by name.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	var hist Metric
	for _, m := range snap {
		if m.Kind == "histogram" {
			hist = m
		}
	}
	// Cumulative buckets: ≤1 → 2 (0.5 and 1), ≤10 → 3, ≤100 → 4, +Inf → 5.
	want := []int64{2, 3, 4, 5}
	if len(hist.Buckets) != len(want) {
		t.Fatalf("buckets=%v", hist.Buckets)
	}
	for i, b := range hist.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d count=%d, want %d", i, b.Count, want[i])
		}
	}
	if hist.Buckets[len(hist.Buckets)-1].LE != math.MaxFloat64 {
		t.Errorf("overflow bucket bound=%v", hist.Buckets[len(hist.Buckets)-1].LE)
	}

	r.Reset()
	if len(r.Snapshot()) != 0 {
		t.Fatal("reset registry still snapshots metrics")
	}
	if c.Value() != 0 {
		t.Fatal("reset did not zero the counter handle")
	}
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x", "a") != r.Counter("x", "b") {
		t.Fatal("same-name counters are distinct handles")
	}
	if r.Histogram("h", "", 1, 2) != r.Histogram("h", "", 3) {
		t.Fatal("same-name histograms are distinct handles")
	}
}

func TestNilHandlesNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	c.Add(1)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	h.ObserveTimer(Timer{})
	s.End()
	s.Walk(func(*Span, int) { t.Fatal("nil span walked") })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		s.Duration() != 0 || s.SelfDuration() != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc", "")
	h := r.Histogram("hh", "", 10)
	withEnabled(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Inc()
					h.Observe(1)
				}
			}()
		}
		wg.Wait()
	})
	if c.Value() != 8000 {
		t.Fatalf("counter=%d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestSpanTree(t *testing.T) {
	Disable()
	if s := StartRun("off"); s != nil {
		t.Fatal("StartRun collected while disabled")
	}
	if _, s := StartSpan(context.Background(), "off"); s != nil {
		t.Fatal("StartSpan collected while disabled")
	}

	withEnabled(t, func() {
		root := StartRun("run")
		ctx, a := StartSpan(context.Background(), "a")
		_, a1 := StartSpan(ctx, "a1")
		a1.End()
		a.End()
		_, b := StartSpan(context.Background(), "b")
		b.End()
		root.End()

		tree := SpanTree()
		if tree != root {
			t.Fatal("SpanTree is not the started root")
		}
		var names []string
		tree.Walk(func(sp *Span, depth int) {
			names = append(names, strings.Repeat(">", depth)+sp.Name)
		})
		want := "run >a >>a1 >b"
		if got := strings.Join(names, " "); got != want {
			t.Fatalf("span walk %q, want %q", got, want)
		}
		if root.Duration() < a.Duration()+b.Duration() {
			t.Fatalf("root %v shorter than children %v+%v", root.Duration(), a.Duration(), b.Duration())
		}
		if root.SelfDuration() > root.Duration() {
			t.Fatal("self duration exceeds total")
		}
	})
}

// TestTimerSamplesAttribution checks that ObserveTimer captures
// concurrent intervals with goroutine attribution while a run is
// active, that the returned samples are sorted, and that spans carry
// the opener's goroutine id.
func TestTimerSamplesAttribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ts.hist", "", 1)
	withEnabled(t, func() {
		root := StartRun("attrib")
		if root.GID == 0 {
			t.Error("root span has no goroutine id")
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					h.ObserveTimer(StartTimer())
				}
			}()
		}
		wg.Wait()
		root.End()

		samples, dropped := TimerSamples()
		if len(samples) != 12 {
			t.Fatalf("%d samples, want 12", len(samples))
		}
		if dropped != 0 {
			t.Fatalf("dropped=%d, want 0", dropped)
		}
		gids := map[int64]bool{}
		for i, s := range samples {
			if s.Name != "ts.hist" {
				t.Errorf("sample %d name %q", i, s.Name)
			}
			if s.GID == 0 {
				t.Errorf("sample %d has no goroutine id", i)
			}
			if s.DurNS < 0 || s.StartNS < 0 {
				t.Errorf("sample %d has negative times: %+v", i, s)
			}
			if i > 0 && samples[i-1].StartNS > s.StartNS {
				t.Errorf("samples not sorted at %d", i)
			}
			gids[s.GID] = true
		}
		if len(gids) < 2 {
			t.Errorf("samples attribute to %d goroutines, want several", len(gids))
		}
		if root.GID != curGID() {
			t.Errorf("root GID %d != current goroutine %d", root.GID, curGID())
		}

		// A new run resets the buffer.
		StartRun("attrib2").End()
		if samples, _ := TimerSamples(); len(samples) != 0 {
			t.Errorf("new run inherited %d samples", len(samples))
		}
	})

	// Outside a run (or disabled), ObserveTimer records no samples.
	Disable()
	h.ObserveTimer(StartTimer())
	if samples, _ := TimerSamples(); len(samples) != 0 {
		t.Error("disabled ObserveTimer recorded a sample")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("simprof compare", []string{"-trace", "x.gob"})
	m.Workload = &WorkloadInfo{Benchmark: "wc", Framework: "spark", Seed: 42, Units: 100, OracleCPI: 1.5}
	m.Phases = &PhaseInfo{K: 4, Silhouette: 0.8, KScores: []float64{0, 0.5, 0.7, 0.8}}
	m.Sampling = &SamplingInfo{
		Method: "SimProf", N: 20, Confidence: 0.997, EstCPI: 1.49, SE: 0.01,
		CILo: 1.46, CIHi: 1.52, OracleCPI: 1.5, RelErr: 0.0067, SEInflation: 1,
		Strata: []StratumInfo{{Phase: 0, Units: 60, Measured: 60, Weight: 0.6, Sigma: 0.2, Alloc: 12, SampledMean: 1.4}},
	}
	m.Faults = &FaultInfo{Spec: "rate=0.05", CountersDropped: 3}

	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != m.Tool || got.Workload.Benchmark != "wc" || got.Phases.K != 4 ||
		got.Sampling.Strata[0].Alloc != 12 || got.Faults.CountersDropped != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Build.GoVersion == "" {
		t.Fatal("build info missing go version")
	}

	// Unsupported versions are rejected, not misread.
	var buf2 bytes.Buffer
	m2 := *m
	m2.Version = ManifestVersion + 1
	if err := m2.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(&buf2); err == nil {
		t.Fatal("future manifest version decoded without error")
	}
}

func TestManifestFile(t *testing.T) {
	path := t.TempDir() + "/run.json"
	m := NewManifest("simprof sample", nil)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "simprof sample" || got.Version != ManifestVersion {
		t.Fatalf("file round trip: %+v", got)
	}
}

func TestSpanSetAttr(t *testing.T) {
	Enable()
	defer Disable()

	run := StartRun("run")
	_, s := StartSpan(context.Background(), "stage")
	s.SetAttr("batch.size", "4")
	s.SetAttr("cache", "miss")
	s.SetAttr("cache", "hit") // last write wins
	s.End()
	run.End()

	if got := s.Attrs["batch.size"]; got != "4" {
		t.Fatalf("batch.size = %q, want 4", got)
	}
	if got := s.Attrs["cache"]; got != "hit" {
		t.Fatalf("cache = %q, want hit (overwrite)", got)
	}

	var nilSpan *Span
	nilSpan.SetAttr("k", "v") // disabled-path no-op
}

func TestSpanSetAttrCollectorOwned(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	_, s := StartSpan(ctx, "stage")
	s.SetAttr("source", "coalesced")
	s.End()
	root := c.Detach()
	if len(root.Children) != 1 || root.Children[0].Attrs["source"] != "coalesced" {
		t.Fatalf("collector-owned attr missing: %+v", root.Children)
	}
}
