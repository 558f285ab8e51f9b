// Package batch is simprofd's deduplicated profile path: a
// content-keyed result cache in front of singleflight coalescing of
// identical in-flight requests, with admission claimed on arrival.
//
// The observation driving it is the paper's own: analytic workloads
// are massively redundant, so at fleet scale most profile uploads are
// byte-identical to one the service has already processed. Two layers
// exploit that redundancy at two timescales:
//
//   - the Cache answers repeats of *completed* work in microseconds
//     (bounded by entries and resident bytes, LRU beyond that);
//   - a flight deduplicates *concurrent* identical work: one
//     execution, every waiter shares the result. Each waiter keeps its
//     own context — a canceled leader hands the flight off to the
//     surviving followers, and the flight's execution context cancels
//     only when the last waiter has left.
//
// Distinct requests share no work, so they are not grouped: a new
// flight starts its goroutine at once, which waits for an execution
// slot (Ticket.Start), runs Exec, releases the slot, caches a success
// and commits the result to every waiter.
//
// Admission composes on arrival: Config.Admit runs under the group
// lock before a flight exists, so an overloaded service refuses (429)
// immediately instead of timing requests out later.
//
// Determinism contract: caching and coalescing change *how often* Exec
// runs, never what it returns — callers get bit-identical results
// cached or computed, which the server's determinism suite enforces.
package batch

import (
	"context"
	"sync"
	"time"

	"simprof/internal/obs"
)

var (
	obsCacheHits = obs.NewCounter("batch.cache_hits",
		"requests served from the dedup result cache")
	obsCacheMisses = obs.NewCounter("batch.cache_misses",
		"requests that missed the dedup result cache")
	obsCoalesced = obs.NewCounter("batch.coalesced",
		"requests that joined an identical in-flight execution")
	obsFlights = obs.NewCounter("batch.flights",
		"deduplicated executions started (one per distinct in-flight key)")
	obsStageSeconds = obs.NewHistogramVec("batch.stage_seconds",
		"flight stage timings: enqueue_wait (admission to execution slot), exec (pipeline execution)",
		[]string{"stage"},
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5)
)

// Source says how a request's result was produced, and is surfaced to
// clients as the X-Simprof-Cache response header.
type Source int

const (
	// Miss: this request's own flight executed the work.
	Miss Source = iota
	// Hit: served from the result cache, no execution.
	Hit
	// Coalesced: shared an identical concurrent request's execution.
	Coalesced
)

// String renders the source as the response-header token.
func (s Source) String() string {
	switch s {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Result is the per-request bookkeeping Do returns beside the value:
// where the result came from and, for executed flights, how long the
// flight waited for an execution slot and how long Exec ran.
type Result struct {
	Source      Source
	EnqueueWait time.Duration // admission → Ticket.Start returned (zero for cache hits)
	Exec        time.Duration // Exec call duration
}

// Ticket is the admission handle a flight holds from arrival to
// completion. resilience.Admission's *Ticket satisfies it: Start
// blocks until an execution slot frees, Done releases it.
type Ticket interface {
	Start(ctx context.Context) error
	Done()
}

// Config tunes a Group.
type Config[K comparable, P, V any] struct {
	// Exec runs one flight. ctx is the flight context: it cancels only
	// when every request waiting on the flight has left, so a canceled
	// leader with live followers does not abort the work.
	Exec func(ctx context.Context, key K, payload P) (V, error)
	// Size estimates a successful result's resident bytes for the
	// cache budget (nil charges 1 per entry).
	Size func(V) int64
	// Cache, when non-nil, memoizes successful results by key. Errors
	// are never cached.
	Cache *Cache[K, V]
	// Admit gates new flights: it must claim capacity without blocking
	// or refuse with a typed error that Do returns verbatim. nil admits
	// everything.
	Admit func() (Ticket, error)
}

// Group composes the cache and the flights over one Exec.
type Group[K comparable, P, V any] struct {
	cfg Config[K, P, V]

	mu      sync.Mutex
	flights map[K]*flight[V]
}

// NewGroup builds a Group. Exec is required.
func NewGroup[K comparable, P, V any](cfg Config[K, P, V]) *Group[K, P, V] {
	if cfg.Exec == nil {
		panic("batch: Config.Exec is required")
	}
	return &Group[K, P, V]{cfg: cfg, flights: map[K]*flight[V]{}}
}

// Do resolves one request: cache hit, join of an identical in-flight
// request, or a new admitted flight. ctx bounds only this caller's
// wait — abandoning a shared flight leaves it running for the other
// waiters.
func (g *Group[K, P, V]) Do(ctx context.Context, key K, payload P) (V, Result, error) {
	var zero V
	if g.cfg.Cache != nil {
		if v, ok := g.cfg.Cache.Get(key); ok {
			obsCacheHits.Inc()
			return v, Result{Source: Hit}, nil
		}
	}
	obsCacheMisses.Inc()

	g.mu.Lock()
	if fl, ok := g.flights[key]; ok {
		fl.refs++
		g.mu.Unlock()
		obsCoalesced.Inc()
		return g.wait(ctx, key, fl, Coalesced)
	}
	// Re-check the cache under the group lock: a flight for this key
	// may have committed between the lock-free probe above and here.
	if g.cfg.Cache != nil {
		if v, ok := g.cfg.Cache.Get(key); ok {
			g.mu.Unlock()
			obsCacheHits.Inc()
			return v, Result{Source: Hit}, nil
		}
	}

	// New flight. Admission happens now, on arrival, so overload is
	// refused before any work is queued.
	var ticket Ticket
	if g.cfg.Admit != nil {
		t, err := g.cfg.Admit()
		if err != nil {
			g.mu.Unlock()
			return zero, Result{Source: Miss}, err
		}
		ticket = t
	}
	fctx, cancel := context.WithCancel(context.Background())
	fl := &flight[V]{done: make(chan struct{}), ctx: fctx, cancel: cancel, refs: 1}
	g.flights[key] = fl
	g.mu.Unlock()
	obsFlights.Inc()
	go g.run(key, payload, fl, ticket, time.Now())
	return g.wait(ctx, key, fl, Miss)
}

// run executes one flight and commits it: wait for the execution slot,
// Exec, release the slot, cache a success, publish to every waiter.
func (g *Group[K, P, V]) run(key K, payload P, fl *flight[V], ticket Ticket, enqueued time.Time) {
	var v V
	var err error
	if ticket != nil {
		err = ticket.Start(fl.ctx)
	}
	res := Result{Source: Miss, EnqueueWait: time.Since(enqueued)}
	obsStageSeconds.With("enqueue_wait").Observe(res.EnqueueWait.Seconds())
	if err == nil {
		execStart := time.Now()
		v, err = g.cfg.Exec(fl.ctx, key, payload)
		res.Exec = time.Since(execStart)
		obsStageSeconds.With("exec").Observe(res.Exec.Seconds())
	}
	if ticket != nil {
		ticket.Done()
	}
	if err == nil && g.cfg.Cache != nil {
		g.cfg.Cache.Put(key, v, g.sizeOf(v))
	}

	g.mu.Lock()
	if g.flights[key] == fl {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	fl.commit(v, err, res)
}

func (g *Group[K, P, V]) sizeOf(v V) int64 {
	if g.cfg.Size == nil {
		return 1
	}
	return g.cfg.Size(v)
}

// wait blocks until the flight commits or this caller's ctx ends.
func (g *Group[K, P, V]) wait(ctx context.Context, key K, fl *flight[V], src Source) (V, Result, error) {
	select {
	case <-fl.done:
		res := fl.res
		res.Source = src
		return fl.v, res, fl.err
	case <-ctx.Done():
		g.leave(key, fl)
		var zero V
		return zero, Result{Source: src}, ctx.Err()
	}
}

// leave records one waiter abandoning the flight; the last one out
// cancels the flight context, aborting the execution, and removes the
// flight from the map, so a later identical request starts a live
// flight instead of joining the canceled one.
func (g *Group[K, P, V]) leave(key K, fl *flight[V]) {
	g.mu.Lock()
	fl.refs--
	last := fl.refs == 0
	if last && g.flights[key] == fl {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// Stats reports the group's live state: distinct in-flight keys and
// the total requests waiting on them. For health endpoints and tests.
func (g *Group[K, P, V]) Stats() (flights, waiters int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, fl := range g.flights {
		waiters += fl.refs
	}
	return len(g.flights), waiters
}
