package main

import (
	"math"
	"testing"
	"time"
)

func sampleOf(total time.Duration) probeSample {
	return probeSample{At: time.Now(), Sort: total / 2, Distance: total / 4, Chain: total / 4}
}

// A host whose probe takes refProbeMS runs at speed 1; one that takes
// twice as long runs at 1/2. A window in which the hypervisor stole a
// quarter of the runnable CPU time was 3/4 available. So 100 ms of wall
// time there is 37.5 ms on the reference box, and 10 operations per
// second there are 26.7.
func TestSetAtRefScalesTimingsToTheReference(t *testing.T) {
	ref := time.Duration(refProbeMS * float64(time.Millisecond))
	if got := (hostWindow{probes: []probeSample{sampleOf(ref)}}).speed(); math.Abs(got-1) > 1e-9 {
		t.Errorf("speed at the reference probe time = %g, want 1", got)
	}
	w := hostWindow{
		probes: []probeSample{sampleOf(2 * ref), sampleOf(2 * ref), sampleOf(10 * ref)},
		start:  cpuTimes{busy: 1000, steal: 50},
		end:    cpuTimes{busy: 1300, steal: 150},
	}
	if got := w.speed(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed = %g, want 0.5 (the median probe, not the outlier)", got)
	}
	if got := w.available(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("available = %g, want 0.75", got)
	}
	r := newReport()
	r.setAtRef("latency_ms_p50", "ms", 100, w, false)
	r.setAtRef("throughput_per_s", "1/s", 10, w, true)
	for name, want := range map[string]float64{
		"latency_ms_p50": 37.5, "ledger.wall.latency_ms_p50": 100,
		"throughput_per_s": 10 / 0.375, "ledger.wall.throughput_per_s": 10,
	} {
		if got := r.values[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if idle := (hostWindow{start: w.start, end: w.start}); idle.available() != 1 {
		t.Errorf("a window with no busy or steal time is %g available, want 1", idle.available())
	}
	if !math.IsNaN((hostWindow{}).speed()) {
		t.Error("speed without probes should be NaN, failing the run")
	}
}

// /proc/stat counts only up.
func TestReadCPUTimes(t *testing.T) {
	a := readCPUTimes()
	probe()
	b := readCPUTimes()
	if math.IsNaN(a.busy) || math.IsNaN(a.steal) {
		t.Fatalf("readCPUTimes = %+v, want finite tick counts", a)
	}
	if b.busy < a.busy || b.steal < a.steal {
		t.Errorf("CPU times went backwards: %+v then %+v", a, b)
	}
}

// The speedometer probes at once, keeps probing until stopped, and has
// exited when stop returns.
func TestSpeedometerStops(t *testing.T) {
	m := startSpeedometer()
	samples := m.stop()
	if len(samples) == 0 {
		t.Fatal("no probe taken")
	}
	for _, s := range samples {
		if s.Sort <= 0 || s.Distance <= 0 || s.Chain <= 0 {
			t.Errorf("probe %+v has a kernel that took no CPU time", s)
		}
	}
	select {
	case <-m.done:
	default:
		t.Error("stop returned before the probing goroutine exited")
	}
}
