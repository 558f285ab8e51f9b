// Package reqtrace retains a statistically principled sample of request
// traces. The problem is the observability twin of the paper's: a
// service cannot keep every trace, and uniform head-sampling keeps the
// wrong ones — the rare slow and failing requests an operator actually
// needs are exactly the ones a uniform coin drops. SimProf's answer
// transfers directly: stratify the completed-trace stream by
// (route, status class, latency bucket), keep 100% of the strata where
// single traces matter (errors, the latency tail), and split the
// remaining fixed budget across the bulk strata with the Neyman
// allocator — samples go where the latency variance lives. Within each
// stratum an Algorithm-R reservoir keeps a uniform sample, so every
// retained trace carries a known inclusion probability
// π_h = kept_h/seen_h and the retained set supports weighted
// (Horvitz–Thompson) latency estimates with standard errors, not just
// anecdotes.
package reqtrace

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/sampling"
	"simprof/internal/stats"
)

// Engine instrumentation. The counters mirror internal tallies kept
// unconditionally; the vecs break admissions down by stratum.
var (
	obsCompleted = obs.NewCounter("reqtrace.completed",
		"completed request traces offered to the retention engine")
	obsRetainedVec = obs.NewCounterVec("reqtrace.retained",
		"traces admitted to the retained set", "route", "status_class", "latency_bucket")
	obsEvictedVec = obs.NewCounterVec("reqtrace.evicted",
		"traces evicted from the retained set (reservoir displacement, rebalance shrink, budget pressure)",
		"route", "status_class", "latency_bucket")
	obsForcedVec = obs.NewCounterVec("reqtrace.forced_keep",
		"traces kept unconditionally (error class or tail latency)", "route", "status_class", "latency_bucket")
	obsBudgetUtil = obs.NewGauge("reqtrace.budget_utilization",
		"retained traces / budget")
	obsPersistDropped = obs.NewCounter("reqtrace.persist_dropped",
		"retained traces not persisted because the persist queue was full")
)

// forcedClasses are the resilience classes that force retention: each
// such trace is evidence of a failure mode, never down-sampled.
var forcedClasses = map[string]bool{
	"internal":    true,
	"timeout":     true,
	"overload":    true,
	"unavailable": true,
}

// defaultBucketBoundsMS are the latency bucket upper bounds (ms). The
// top (overflow) bucket is the tail: traces landing there are
// force-kept.
var defaultBucketBoundsMS = []float64{5, 25, 100, 500}

// Config tunes the retention engine. The zero value is usable: every
// field has a default.
type Config struct {
	// Budget bounds the retained set (forced keeps included); default 256.
	Budget int
	// Ring bounds the most-recent completed-trace ring, kept regardless
	// of retention so "what just happened" is always answerable;
	// default 64.
	Ring int
	// BucketBoundsMS are the latency stratum bounds in milliseconds,
	// ascending. Latencies at or above the last bound fall in the tail
	// bucket and are force-kept. Default 5, 25, 100, 500.
	BucketBoundsMS []float64
	// Rebalance re-runs the Neyman allocation every this many
	// completions; default 64.
	Rebalance int
	// Seed drives the per-stratum reservoir RNGs; retention is a pure
	// function of (seed, completion sequence).
	Seed uint64
	// Now is the clock (injectable for deterministic tests); default
	// time.Now.
	Now func() time.Time
	// Store, when non-nil, receives every admitted trace as a durable
	// history record (asynchronously; a full queue drops and counts).
	Store *history.Store
	// PersistQueue bounds the async persist queue; default 256.
	PersistQueue int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 256
	}
	if c.Ring <= 0 {
		c.Ring = 64
	}
	if len(c.BucketBoundsMS) == 0 {
		c.BucketBoundsMS = defaultBucketBoundsMS
	}
	if c.Rebalance <= 0 {
		c.Rebalance = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.PersistQueue <= 0 {
		c.PersistQueue = 256
	}
	return c
}

// Trace is one completed request: identity, outcome, and the captured
// span tree (nil when span capture was off).
type Trace struct {
	Seq     uint64        `json:"seq"` // admission order, engine-assigned
	ID      string        `json:"id"`
	Route   string        `json:"route"`
	Tenant  string        `json:"tenant,omitempty"`
	Status  int           `json:"status"`
	Class   string        `json:"class"`
	Bytes   int64         `json:"bytes,omitempty"`
	Start   time.Time     `json:"start"`
	Latency time.Duration `json:"latency"`
	Forced  bool          `json:"forced"`
	Spans   *obs.Span     `json:"spans,omitempty"`
}

// LatencyMS returns the trace latency in float milliseconds.
func (t *Trace) LatencyMS() float64 { return float64(t.Latency) / float64(time.Millisecond) }

// stratumKey identifies one stratum of the completed-trace stream.
type stratumKey struct {
	route       string
	statusClass string
	bucket      string
}

func (k stratumKey) String() string {
	return k.route + "|" + k.statusClass + "|" + k.bucket
}

// stratum is the engine's per-stratum state. The forced and sampled
// sub-populations are tracked separately: forced keeps have π ≈ 1 by
// construction, the reservoir's π is kept/seen. Latency moments
// (Welford) accumulate over everything the stratum has seen — the
// engine observes the full population stream, so σ_h for the Neyman
// split is the population spread, not a sample estimate.
type stratum struct {
	key stratumKey
	rng *rand.Rand

	sampledSeen int64
	forcedSeen  int64
	kept        []*Trace // reservoir, admission order
	forced      []*Trace // forced keeps, admission order
	target      int      // current Neyman allocation

	mean, m2             float64 // Welford over sampled-seen latencies (ms)
	forcedMean, forcedM2 float64 // Welford over forced-seen latencies (ms)
}

func (st *stratum) sigma() float64 {
	if st.sampledSeen < 2 {
		return 0
	}
	return math.Sqrt(st.m2 / float64(st.sampledSeen))
}

// Active is an in-flight request being traced; Finish or Abort it.
type Active struct {
	id, route, tenant string
	start             time.Time
	col               *obs.Collector
}

// Engine is the retention engine. A nil engine is valid and free:
// Start/Finish/Stop no-op, which is the disabled request-tracing path.
type Engine struct {
	cfg Config

	mu          sync.Mutex
	seq         uint64
	completions int64
	strata      map[stratumKey]*stratum
	retained    int // total kept, forced included
	forcedKept  int
	evicted     int64
	recent      []*Trace // ring, newest at the end
	hist        latHist  // cumulative latency histogram, all completions

	persistCh      chan *history.Record
	persistDone    chan struct{}
	persistDropped int64 // guarded by mu
	stopOnce       sync.Once
}

// New builds an engine. Pass the result around as *Engine; nil means
// request tracing is off.
func New(cfg Config) *Engine {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:    c,
		strata: map[stratumKey]*stratum{},
		hist:   newLatHist(),
	}
	if c.Store != nil {
		e.persistCh = make(chan *history.Record, c.PersistQueue)
		e.persistDone = make(chan struct{})
		go e.persistLoop()
	}
	return e
}

// Stop shuts the engine down: the persist queue is drained and the
// persister goroutine is gone when Stop returns. Idempotent; safe on a
// nil engine.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.stopOnce.Do(func() {
		if e.persistCh != nil {
			close(e.persistCh)
			<-e.persistDone
		}
	})
}

// Start begins tracing one request: it attaches a span collector to
// the request context (when telemetry is enabled), so stages that open
// spans under the returned context land in this request's tree. The
// returned handle must be Finished (or Aborted) exactly once. A nil
// engine returns ctx and a nil Active, and a nil Active no-ops — the
// disabled path is two nil checks and nothing else.
func (e *Engine) Start(ctx context.Context, id, route, tenant string) (context.Context, *Active) {
	if e == nil {
		return ctx, nil
	}
	ctx, col := obs.AttachCollector(ctx, "request "+id)
	return ctx, &Active{
		id: id, route: route, tenant: tenant,
		start: e.cfg.Now(),
		col:   col,
	}
}

// Finish completes the request: the span tree is finalized (spans
// still open are closed now) and the trace enters retention. latency is
// the caller's measured duration (the same number its metrics report);
// the engine's clock only stamps start times.
func (e *Engine) Finish(a *Active, status int, class string, bytes int64, latency time.Duration) {
	if e == nil || a == nil {
		return
	}
	t := &Trace{
		ID:      a.id,
		Route:   a.route,
		Tenant:  a.tenant,
		Status:  status,
		Class:   class,
		Bytes:   bytes,
		Start:   a.start,
		Latency: latency,
		Spans:   a.col.Detach(),
	}
	e.complete(t)
}

// Abort discards an in-flight trace (request rejected before it meant
// anything), detaching the collector without feeding retention.
func (e *Engine) Abort(a *Active) {
	if e == nil || a == nil {
		return
	}
	a.col.Detach()
}

// statusClassOf buckets an HTTP status.
func statusClassOf(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// bucketOf maps a latency to its stratum bucket label. The labels spell
// the bounds out so the strata are self-describing in metrics and API
// responses.
func (e *Engine) bucketOf(latency time.Duration) (label string, tail bool) {
	ms := float64(latency) / float64(time.Millisecond)
	bounds := e.cfg.BucketBoundsMS
	for i, b := range bounds {
		if ms < b {
			if i == 0 {
				return fmt.Sprintf("<%gms", b), false
			}
			return fmt.Sprintf("%g-%gms", bounds[i-1], b), false
		}
	}
	return fmt.Sprintf(">=%gms", bounds[len(bounds)-1]), true
}

// isForced reports whether a trace bypasses sampling: server-fault
// status, a failure-mode resilience class, or tail latency.
func (e *Engine) isForced(t *Trace) bool {
	if t.Status >= 500 || forcedClasses[t.Class] {
		return true
	}
	_, tail := e.bucketOf(t.Latency)
	return tail
}

// complete runs retention for one finished trace.
func (e *Engine) complete(t *Trace) {
	obsCompleted.Inc()

	e.mu.Lock()
	defer e.mu.Unlock()

	e.seq++
	t.Seq = e.seq
	e.completions++
	e.hist.observe(t.LatencyMS())

	// Recent ring first: the ring holds what just happened regardless of
	// what retention decides.
	if len(e.recent) == e.cfg.Ring {
		copy(e.recent, e.recent[1:])
		e.recent[len(e.recent)-1] = t
	} else {
		e.recent = append(e.recent, t)
	}

	bucket, _ := e.bucketOf(t.Latency)
	key := stratumKey{route: t.Route, statusClass: statusClassOf(t.Status), bucket: bucket}
	st := e.strata[key]
	if st == nil {
		h := fnv.New64a()
		h.Write([]byte(key.String()))
		st = &stratum{
			key: key,
			rng: stats.NewRNG(stats.SplitSeed(e.cfg.Seed, h.Sum64())),
			// A brand-new stratum admits its first traces immediately
			// instead of waiting for the next rebalance to grant it a
			// target; the rebalance then trims to the Neyman share.
			target: 1,
		}
		e.strata[key] = st
	}

	t.Forced = e.isForced(t)
	if t.Forced {
		st.forcedSeen++
		st.forcedMean, st.forcedM2 = welford(st.forcedMean, st.forcedM2, st.forcedSeen, t.LatencyMS())
		st.forced = append(st.forced, t)
		e.retained++
		e.forcedKept++
		obsForcedVec.With(key.route, key.statusClass, key.bucket).Inc()
		obsRetainedVec.With(key.route, key.statusClass, key.bucket).Inc()
		e.persistLocked(t, st)
	} else {
		st.sampledSeen++
		st.mean, st.m2 = welford(st.mean, st.m2, st.sampledSeen, t.LatencyMS())
		switch {
		case len(st.kept) < st.target:
			st.kept = append(st.kept, t)
			e.retained++
			obsRetainedVec.With(key.route, key.statusClass, key.bucket).Inc()
			e.persistLocked(t, st)
		case st.target > 0:
			// Algorithm R: the i-th sampled arrival displaces a uniform
			// reservoir slot with probability target/i.
			if j := st.rng.IntN(int(st.sampledSeen)); j < len(st.kept) {
				st.kept[j] = t
				e.evicted++
				obsEvictedVec.With(key.route, key.statusClass, key.bucket).Inc()
				obsRetainedVec.With(key.route, key.statusClass, key.bucket).Inc()
				e.persistLocked(t, st)
			}
		}
	}

	if e.completions%int64(e.cfg.Rebalance) == 0 {
		e.rebalanceLocked()
	}
	e.enforceBudgetLocked()
	obsBudgetUtil.Set(float64(e.retained) / float64(e.cfg.Budget))
}

// welford folds one observation into running (mean, M2) aggregates.
func welford(mean, m2 float64, n int64, x float64) (float64, float64) {
	d := x - mean
	mean += d / float64(n)
	m2 += d * (x - mean)
	return mean, m2
}

// sortedStrata returns the strata in deterministic key order; every
// loop that mutates state iterates this way so retention is replayable.
func (e *Engine) sortedStrata() []*stratum {
	out := make([]*stratum, 0, len(e.strata))
	for _, st := range e.strata {
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool {
		ka, kb := out[a].key, out[b].key
		if ka.route != kb.route {
			return ka.route < kb.route
		}
		if ka.statusClass != kb.statusClass {
			return ka.statusClass < kb.statusClass
		}
		return ka.bucket < kb.bucket
	})
	return out
}

// rebalanceLocked recomputes the per-stratum reservoir targets: the
// budget left after forced keeps is split across the sampled
// sub-populations by Neyman allocation (n_h ∝ N_h·σ_h, capacity-capped
// at what each stratum has actually seen), then over-target reservoirs
// shrink. σ_h is the population spread of the stratum's observed
// latencies; when no stratum has measurable spread yet the split
// degrades to proportional (σ ≡ 1).
func (e *Engine) rebalanceLocked() {
	strata := e.sortedStrata()
	var active []*stratum
	for _, st := range strata {
		if st.sampledSeen > 0 {
			active = append(active, st)
		}
	}
	if len(active) == 0 {
		return
	}
	n := e.cfg.Budget - e.forcedKept
	if n < 0 {
		n = 0
	}
	Nh := make([]int, len(active))
	sigma := make([]float64, len(active))
	anySpread := false
	for i, st := range active {
		Nh[i] = int(st.sampledSeen)
		sigma[i] = st.sigma()
		if sigma[i] > 0 {
			anySpread = true
		}
	}
	if !anySpread {
		for i := range sigma {
			sigma[i] = 1
		}
	}
	alloc, err := sampling.NeymanAllocationCapacity(Nh, Nh, sigma, n)
	if err != nil {
		return // inputs are constructed valid; defensive only
	}
	for i, st := range active {
		st.target = alloc[i]
		for len(st.kept) > st.target {
			// Shrink newest-first: the oldest reservoir entries carry the
			// longest-surviving uniform history.
			st.kept = st.kept[:len(st.kept)-1]
			e.retained--
			e.evicted++
			obsEvictedVec.With(st.key.route, st.key.statusClass, st.key.bucket).Inc()
		}
	}
}

// enforceBudgetLocked guarantees retained ≤ budget between rebalances
// (forced keeps arrive unbounded). Sampled reservoirs shed first, the
// stratum with the largest reservoir each step; if the whole overage is
// forced, the globally oldest forced trace goes — memory stays bounded
// through a failure storm and the forced π honestly drops below 1.
func (e *Engine) enforceBudgetLocked() {
	for e.retained > e.cfg.Budget {
		var victim *stratum
		for _, st := range e.sortedStrata() {
			if len(st.kept) > 0 && (victim == nil || len(st.kept) > len(victim.kept)) {
				victim = st
			}
		}
		if victim != nil {
			victim.kept = victim.kept[:len(victim.kept)-1]
			if victim.target > len(victim.kept) {
				victim.target = len(victim.kept)
			}
			e.retained--
			e.evicted++
			obsEvictedVec.With(victim.key.route, victim.key.statusClass, victim.key.bucket).Inc()
			continue
		}
		// Only forced traces remain: evict the oldest.
		var oldest *stratum
		for _, st := range e.sortedStrata() {
			if len(st.forced) > 0 && (oldest == nil || st.forced[0].Seq < oldest.forced[0].Seq) {
				oldest = st
			}
		}
		if oldest == nil {
			return // unreachable: retained > 0 implies a non-empty list
		}
		oldest.forced = oldest.forced[1:]
		e.retained--
		e.forcedKept--
		e.evicted++
		obsEvictedVec.With(oldest.key.route, oldest.key.statusClass, oldest.key.bucket).Inc()
	}
}
