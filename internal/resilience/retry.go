package resilience

import (
	"context"
	"fmt"
	"time"

	"simprof/internal/obs"
	"simprof/internal/stats"
)

var (
	obsRetries = obs.NewCounter("resilience.retries",
		"operation attempts re-run after a transient failure")
	obsRetryExhausted = obs.NewCounter("resilience.retry_exhausted",
		"operations that failed every allowed attempt")
	obsRetryOutcomes = obs.NewCounterVec("resilience.retry_outcomes",
		"terminal Retry.Do outcomes by resilience class", "class")
)

// The backoff doubles after every retry and never exceeds a second.
const (
	retryMultiplier = 2
	retryMax        = time.Second
)

// Retry is an exponential-backoff retry policy with seeded jitter.
// The zero value is usable: it means one attempt, i.e. no retrying.
type Retry struct {
	// Attempts is the total number of tries (first call included).
	// Values < 1 behave as 1.
	Attempts int
	// Base is the delay before the first retry; each further retry
	// doubles it, up to one second. Base <= 0 selects 10ms.
	Base time.Duration
	// Jitter spreads each delay uniformly over
	// [delay*(1-Jitter), delay*(1+Jitter)] so synchronized clients
	// don't retry in lockstep. Negative behaves as 0; values are
	// clamped to 1. Zero means deterministic full delays.
	Jitter float64
	// Seed drives the jitter stream (stats.SplitSeed-derived), making a
	// retry schedule reproducible for a given policy.
	Seed uint64

	// Sleep is the injectable wait. nil selects a timer that aborts
	// early (returning ctx.Err()) when the context ends.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (r Retry) withDefaults() Retry {
	if r.Attempts < 1 {
		r.Attempts = 1
	}
	if r.Base <= 0 {
		r.Base = 10 * time.Millisecond
	}
	if r.Jitter < 0 {
		r.Jitter = 0
	}
	if r.Jitter > 1 {
		r.Jitter = 1
	}
	if r.Sleep == nil {
		r.Sleep = sleepCtx
	}
	return r
}

// sleepCtx waits d or until the context ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Delays returns the backoff schedule the policy would use between
// attempts (len = Attempts-1), jitter applied. Exposed so tests and
// capacity planning can inspect a schedule without running anything.
func (r Retry) Delays() []time.Duration {
	p := r.withDefaults()
	if p.Attempts <= 1 {
		return nil
	}
	rng := stats.NewRNG(stats.SplitSeed(p.Seed, 0x9e77))
	out := make([]time.Duration, 0, p.Attempts-1)
	d := float64(p.Base)
	for i := 1; i < p.Attempts; i++ {
		v := d
		if p.Jitter > 0 {
			v = d * (1 - p.Jitter + 2*p.Jitter*rng.Float64())
		}
		if v > float64(retryMax) {
			v = float64(retryMax)
		}
		out = append(out, time.Duration(v))
		d *= retryMultiplier
		if d > float64(retryMax) {
			d = float64(retryMax)
		}
	}
	return out
}

// Do runs fn up to Attempts times, backing off between tries. A retry
// happens only when Retryable(err) is true. Context cancellation or
// expiry stops the loop immediately — during a backoff sleep too — and
// the context error wraps the last attempt's error so both
// classification (timeout / canceled) and the root cause survive.
func (r Retry) Do(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	defer func() { obsRetryOutcomes.With(Classify(err).String()).Inc() }()
	p := r.withDefaults()
	delays := p.Delays()
	var last error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if last != nil {
				return fmt.Errorf("%w (after %d attempts, last: %w)", err, attempt, last)
			}
			return err
		}
		last = fn(ctx)
		if last == nil {
			return nil
		}
		if attempt >= len(delays) || !Retryable(last) {
			if attempt > 0 {
				obsRetryExhausted.Inc()
			}
			return last
		}
		obsRetries.Inc()
		if err := p.Sleep(ctx, delays[attempt]); err != nil {
			return fmt.Errorf("%w (after %d attempts, last: %w)", err, attempt+1, last)
		}
	}
}
