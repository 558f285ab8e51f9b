package obs

import (
	"context"
	"testing"
)

// BenchmarkTelemetryDisabled is the guard for the no-op sink contract:
// with telemetry off, every record operation must run in a few
// nanoseconds and allocate nothing. scripts/check.sh fails the build if
// any sub-benchmark reports a non-zero allocs/op.
func BenchmarkTelemetryDisabled(b *testing.B) {
	Disable()
	c := NewCounter("bench.disabled.counter", "")
	g := NewGauge("bench.disabled.gauge", "")
	h := NewHistogram("bench.disabled.hist", "", 1, 10, 100)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i))
		}
	})
	b.Run("span", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := StartSpan(ctx, "x")
			s.End()
		}
	})
	b.Run("timer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ObserveTimer(StartTimer())
		}
	})
}

// BenchmarkObsDisabledLabeled extends the no-op sink guard to labeled
// families and windowed metrics: With must return nil (and the child
// methods no-op) without touching the children map, and a windowed
// Observe must bail before taking the ring lock. scripts/check.sh fails
// the build if any sub-benchmark reports a non-zero allocs/op.
func BenchmarkObsDisabledLabeled(b *testing.B) {
	Disable()
	cv := NewCounterVec("bench.disabled.countervec", "", "route", "status")
	hv := NewHistogramVec("bench.disabled.histvec", "", []string{"route"}, 1, 10, 100)
	wh := NewWindowedHistogram(0, 0, nil, 1, 10, 100)
	wc := NewWindowedCounter(0, 0, nil)
	b.Run("countervec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cv.With("/v1/profile", "200").Inc()
		}
	})
	b.Run("histogramvec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hv.With("/v1/profile").Observe(float64(i))
		}
	})
	b.Run("windowedhist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wh.Observe(float64(i))
		}
	})
	b.Run("windowedcounter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wc.Inc()
		}
	})
}

// BenchmarkTelemetryEnabled measures the recording cost, for the
// overhead table in EXPERIMENTS.md.
func BenchmarkTelemetryEnabled(b *testing.B) {
	Enable()
	defer Disable()
	c := NewCounter("bench.enabled.counter", "")
	h := NewHistogram("bench.enabled.hist", "", 1, 10, 100)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i % 200))
		}
	})
}
