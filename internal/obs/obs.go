// Package obs is SimProf's zero-dependency telemetry subsystem: typed
// counters, gauges and histograms registered per package, hierarchical
// spans with monotonic durations, and a structured run manifest written
// as JSON next to trace/report artifacts.
//
// Two contracts drive the design:
//
//  1. Observation never perturbs the pipeline. Instrumentation touches
//     no RNG stream and no floating-point accumulation of the compute
//     kernels, so every numeric output is bit-for-bit identical with
//     telemetry on or off (guarded by a determinism test).
//
//  2. Disabled telemetry is free on hot paths. All record operations
//     gate on one atomic flag and allocate nothing either way; a
//     disabled Add/Observe/Set is a single atomic load and a branch,
//     and a disabled StartSpan returns a nil span whose methods no-op
//     (guarded by an allocation benchmark).
//
// Output is deterministic in structure: metric snapshots are sorted by
// name, manifest fields serialize in a fixed order, and the span tree
// follows the driver's stage order. Durations are the only wall-clock-
// dependent values; everything else replays identically for a seed.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the single global switch. All record operations check it;
// registration and snapshots work regardless.
var enabled atomic.Bool

// Enable turns on metric recording and span collection process-wide.
func Enable() { enabled.Store(true) }

// Disable turns telemetry back off. Recorded values stay readable.
func Disable() { enabled.Store(false) }

// Enabled reports whether telemetry is recording.
func Enabled() bool { return enabled.Load() }

// Registry holds the metrics of a process. Instrumented packages
// register their metrics against Default at init time; tests may build
// private registries.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing event count.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Gauge is a last-value-wins float measurement.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // Float64bits
}

// Histogram accumulates observations into fixed cumulative buckets
// (counts[i] tallies observations ≤ bounds[i]; the last slot is +Inf).
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1
	count      atomic.Int64
	sumBits    atomic.Uint64 // Float64bits of the running sum
}

// Counter registers (or returns the existing) counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram registers (or returns the existing) histogram with this
// name. bounds must be sorted ascending; they are fixed for the life of
// the process so concurrent Observe calls never resize anything.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge registers a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name, help string, bounds ...float64) *Histogram {
	return defaultRegistry.Histogram(name, help, bounds...)
}

// Add increments the counter by n. A nil counter or disabled telemetry
// is a no-op; neither path allocates.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Sync stores an absolute value mirrored from an externally maintained
// tally (the access-log line/drop counts, say). Unlike Add it does not
// gate on the enabled flag: the mirrored tally is already the source of
// truth and Sync only makes it visible to Snapshot and the Prometheus
// exposition. Scrape handlers call it just before snapshotting.
func (c *Counter) Sync(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Set stores v. A nil gauge or disabled telemetry is a no-op.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Observe records v. A nil histogram or disabled telemetry is a no-op;
// neither path allocates.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the p-quantile (p in [0,1], clamped) from the
// histogram's cumulative buckets by linear interpolation inside the
// containing bucket, taking 0 as the lower edge of the first bucket.
// A rank that lands in the overflow bucket returns the last finite
// bound — the histogram cannot resolve beyond it. An empty or nil
// histogram returns NaN.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	bs := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := infLE
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		bs[i] = Bucket{LE: le, Count: cum}
	}
	return quantileFromBuckets(bs, p)
}

// quantileFromBuckets is the shared quantile estimator over a
// cumulative bucket snapshot (live Histogram or serialized Metric).
func quantileFromBuckets(bs []Bucket, p float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].Count == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(bs[len(bs)-1].Count)
	var prevCum int64
	lo := 0.0
	for _, b := range bs {
		if float64(b.Count) >= rank && b.Count > prevCum {
			if b.LE >= infLE {
				// Overflow bucket: the last finite bound is the best
				// (and only) answer the fixed buckets can give.
				return lo
			}
			in := float64(b.Count - prevCum)
			return lo + (b.LE-lo)*((rank-float64(prevCum))/in)
		}
		prevCum = b.Count
		if b.LE < infLE {
			lo = b.LE
		}
	}
	return lo
}

// Quantile estimates the p-quantile of a snapshotted histogram metric
// from its cumulative buckets (NaN for non-histogram or empty metrics).
func (m Metric) Quantile(p float64) float64 {
	return quantileFromBuckets(m.Buckets, p)
}

// Metric is one snapshotted metric value, JSON-ready.
type Metric struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter", "gauge" or "histogram"
	Help string `json:"help,omitempty"`
	// Value is the counter count, the gauge value, or the histogram
	// observation count.
	Value float64 `json:"value"`
	// Sum and Buckets are set for histograms only. Buckets[i].Count is
	// cumulative up to Buckets[i].LE.
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
	// Labels identifies the child of a labeled family (empty for scalar
	// metrics), in the family's registered label-name order.
	Labels []LabelPair `json:"labels,omitempty"`
}

// Bucket is one cumulative histogram bucket: Count observations were
// ≤ LE. The overflow bucket uses MaxFloat64 as its bound because
// encoding/json rejects IEEE infinities.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// infLE is the JSON-safe stand-in for the +Inf bucket bound
// (encoding/json rejects IEEE infinities).
const infLE = math.MaxFloat64

// histMetric builds the snapshot metric for one histogram.
func histMetric(name, help string, h *Histogram, labels []LabelPair) Metric {
	m := Metric{Name: name, Kind: "histogram", Help: help,
		Value: float64(h.count.Load()), Sum: h.Sum(), Labels: labels}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := infLE
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		m.Buckets = append(m.Buckets, Bucket{LE: le, Count: cum})
	}
	return m
}

// Snapshot returns every touched metric in a deterministic order:
// sorted by name, ties broken by kind, then by the canonical sorted
// label-pair key, so labeled children of one family appear in a stable
// sequence across runs and processes. Manifest and history diffs rely
// on this ordering. Metrics that were never incremented, set or
// observed are skipped so manifests only carry the signals the run
// actually produced.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Metric
	for name, c := range r.counters {
		if v := c.v.Load(); v != 0 {
			out = append(out, Metric{Name: name, Kind: "counter", Help: c.help, Value: float64(v)})
		}
	}
	for name, g := range r.gauges {
		if bits := g.bits.Load(); bits != 0 {
			out = append(out, Metric{Name: name, Kind: "gauge", Help: g.help, Value: math.Float64frombits(bits)})
		}
	}
	for name, h := range r.hists {
		if h.count.Load() == 0 {
			continue
		}
		out = append(out, histMetric(name, h.help, h, nil))
	}
	for _, v := range r.counterVecs {
		v.set.mu.Lock()
		for _, k := range v.set.keys {
			if c := v.children[k]; c.v.Load() != 0 {
				out = append(out, Metric{Name: v.name, Kind: "counter", Help: v.help,
					Value: float64(c.v.Load()), Labels: v.set.pairs(v.set.values[k])})
			}
		}
		v.set.mu.Unlock()
	}
	for _, v := range r.histVecs {
		v.set.mu.Lock()
		for _, k := range v.set.keys {
			if h := v.children[k]; h.count.Load() != 0 {
				out = append(out, histMetric(v.name, v.help, h, v.set.pairs(v.set.values[k])))
			}
		}
		v.set.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].LabelsKey() < out[b].LabelsKey()
	})
	return out
}

// Reset zeroes every metric in the registry (the handles stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		resetHist(h)
	}
	for _, v := range r.counterVecs {
		v.set.mu.Lock()
		for _, c := range v.children {
			c.v.Store(0)
		}
		v.set.mu.Unlock()
	}
	for _, v := range r.histVecs {
		v.set.mu.Lock()
		for _, h := range v.children {
			resetHist(h)
		}
		v.set.mu.Unlock()
	}
}

func resetHist(h *Histogram) {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}
