package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestClassify pins the taxonomy: every sentinel (bare and wrapped)
// maps to its class, HTTP status and exit code.
func TestClassify(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("layer2: %w", fmt.Errorf("layer1: %w", err)) }
	cases := []struct {
		name string
		err  error
		want Class
		http int
		exit int
	}{
		{"nil", nil, ClassOK, 200, 0},
		{"overload", ErrOverload, ClassOverload, 429, 5},
		{"overload-wrapped", wrap(ErrOverload), ClassOverload, 429, 5},
		{"breaker", ErrBreakerOpen, ClassUnavailable, 503, 6},
		{"draining", wrap(ErrDraining), ClassUnavailable, 503, 6},
		{"deadline", context.DeadlineExceeded, ClassTimeout, 504, 4},
		{"deadline-wrapped", wrap(context.DeadlineExceeded), ClassTimeout, 504, 4},
		{"canceled", wrap(context.Canceled), ClassCanceled, 499, 7},
		{"bad-input", BadInput(errors.New("bogus trace")), ClassBadInput, 400, 3},
		{"bad-input-wrapped", wrap(BadInput(errors.New("x"))), ClassBadInput, 400, 3},
		{"internal", errors.New("disk on fire"), ClassInternal, 500, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Classify(tc.err)
			if got != tc.want {
				t.Fatalf("Classify = %v, want %v", got, tc.want)
			}
			if s := got.HTTPStatus(); s != tc.http {
				t.Fatalf("HTTPStatus = %d, want %d", s, tc.http)
			}
			if c := got.ExitCode(); c != tc.exit {
				t.Fatalf("ExitCode = %d, want %d", c, tc.exit)
			}
		})
	}
}

func TestBadInputNil(t *testing.T) {
	if BadInput(nil) != nil {
		t.Fatal("BadInput(nil) must stay nil")
	}
}

func TestRetryable(t *testing.T) {
	if Retryable(BadInput(errors.New("x"))) {
		t.Fatal("bad input must not be retryable")
	}
	if Retryable(context.Canceled) {
		t.Fatal("cancellation must not be retryable")
	}
	if !Retryable(errors.New("flaky disk")) || !Retryable(ErrOverload) {
		t.Fatal("internal/overload errors must be retryable")
	}
}

// TestRetrySucceedsAfterTransient: a fn that fails twice then succeeds
// is retried to success, with the seeded backoff schedule applied.
func TestRetrySucceedsAfterTransient(t *testing.T) {
	var slept []time.Duration
	p := Retry{
		Attempts: 5, Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.2, Seed: 42,
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	calls := 0
	err := p.Do(context.Background(), nil, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	want := p.Delays()
	for i, d := range slept {
		if d != want[i] {
			t.Fatalf("sleep %d = %v, want schedule %v", i, d, want)
		}
	}
}

// TestRetryScheduleDeterministic: same policy, same jittered delays.
func TestRetryScheduleDeterministic(t *testing.T) {
	p := Retry{Attempts: 6, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5, Seed: 7}
	a, b := p.Delays(), p.Delays()
	if len(a) != 5 {
		t.Fatalf("len(Delays) = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 || a[i] > 100*time.Millisecond {
			t.Fatalf("delay %d = %v out of (0, Max]", i, a[i])
		}
	}
	// A different seed moves the jitter.
	p2 := p
	p2.Seed = 8
	c := p2.Delays()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical jitter schedule")
	}
}

// TestRetryStopsOnNonRetryable: bad input is never retried.
func TestRetryStopsOnNonRetryable(t *testing.T) {
	p := Retry{Attempts: 5, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	bad := BadInput(errors.New("malformed"))
	err := p.Do(context.Background(), nil, func(context.Context) error { calls++; return bad })
	if calls != 1 {
		t.Fatalf("non-retryable error retried: %d calls", calls)
	}
	if Classify(err) != ClassBadInput {
		t.Fatalf("class = %v, want bad input", Classify(err))
	}
}

// TestRetryExhausted: the last error surfaces after all attempts.
func TestRetryExhausted(t *testing.T) {
	p := Retry{Attempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	calls := 0
	err := p.Do(context.Background(), nil, func(context.Context) error {
		calls++
		return fmt.Errorf("boom %d", calls)
	})
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
}

// TestRetryCanceledMidBackoff: a context that ends during the backoff
// sleep aborts the loop with a timeout/cancel classification that
// still carries the root cause.
func TestRetryCanceledMidBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Retry{
		Attempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	root := errors.New("flaky")
	err := p.Do(ctx, nil, func(context.Context) error { return root })
	if Classify(err) != ClassCanceled {
		t.Fatalf("class = %v, want canceled", Classify(err))
	}
	if !errors.Is(err, root) {
		t.Fatalf("root cause lost: %v", err)
	}
}

// TestBreakerLifecycle drives closed → open → half-open → closed with
// a stepped clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute, Probes: 2,
		Now: func() time.Time { return now }})

	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before threshold, want closed", b.State())
	}
	b.Record(true) // third consecutive failure
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after threshold, want open", b.State())
	}
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if Classify(err) != ClassUnavailable {
		t.Fatalf("class = %v, want unavailable", Classify(err))
	}
	if ra := b.RetryAfter(); ra != time.Minute {
		t.Fatalf("RetryAfter = %v, want full cooldown", ra)
	}

	// Cooldown elapses → half-open, admitting exactly Probes calls.
	now = now.Add(time.Minute)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe 1 refused: %v", err)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe 2 refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe 3 should be refused, got %v", err)
	}
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probes, want closed", b.State())
	}

	// A half-open failure re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Record(true)
	}
	now = now.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
}

// TestAdmissionBackpressure: workers=1, queue=1 — the third concurrent
// ticket is refused with ErrOverload, a queued ticket gets the slot
// when released, and a queued ticket whose context ends leaves cleanly.
func TestAdmissionBackpressure(t *testing.T) {
	a := NewAdmission(1, 1)
	t1, err := a.Enqueue()
	if err != nil {
		t.Fatalf("first enqueue: %v", err)
	}

	// Second caller queues and waits for the slot in the background.
	t2, err := a.Enqueue()
	if err != nil {
		t.Fatalf("second enqueue: %v", err)
	}
	got2 := make(chan error, 1)
	go func() { got2 <- t2.Start(context.Background()) }()
	waitDepth(t, a, 1, 1)

	// Third caller: queue full → immediate typed refusal.
	if _, err := a.Enqueue(); !errors.Is(err, ErrOverload) {
		t.Fatalf("overload enqueue returned %v, want ErrOverload", err)
	}

	// Releasing the slot admits the queued caller.
	t1.Done()
	if err := <-got2; err != nil {
		t.Fatalf("queued start: %v", err)
	}
	waitDepth(t, a, 1, 0)

	// A queued caller whose context is canceled leaves the queue.
	t3, err := a.Enqueue()
	if err != nil {
		t.Fatalf("third enqueue: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got3 := make(chan error, 1)
	go func() { got3 <- t3.Start(ctx) }()
	cancel()
	if err := <-got3; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled start returned %v, want context.Canceled", err)
	}
	waitDepth(t, a, 1, 0)
	t2.Done()
	waitDepth(t, a, 0, 0)

	// Double release must not free two slots.
	t2.Done()
	if active, _ := a.Depth(); active != 0 {
		t.Fatalf("double release drove active to %d", active)
	}
}

// waitDepth polls Depth until it matches (the queued goroutine races
// the assertion) with a deadline.
func waitDepth(t *testing.T, a *Admission, active, waiting int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ac, wa := a.Depth()
		if ac == active && wa == waiting {
			return
		}
		time.Sleep(time.Millisecond)
	}
	ac, wa := a.Depth()
	t.Fatalf("depth = (%d,%d), want (%d,%d)", ac, wa, active, waiting)
}

// TestDrain: begin refuses new entrants, in-flight work finishes, Wait
// unblocks, and an expired budget reports the context error.
func TestDrain(t *testing.T) {
	d := NewDrain()
	exit, err := d.Enter()
	if err != nil {
		t.Fatalf("Enter: %v", err)
	}
	d.Begin()
	if _, err := d.Enter(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Enter while draining returned %v, want ErrDraining", err)
	}
	if Classify(ErrDraining) != ClassUnavailable {
		t.Fatal("draining must classify unavailable")
	}

	// Budget expires with work still in flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := d.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait with in-flight work = %v, want deadline", err)
	}

	exit()
	exit() // idempotent
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := d.Wait(ctx2); err != nil {
		t.Fatalf("Wait after exit: %v", err)
	}
	if d.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", d.InFlight())
	}
	d.Begin() // idempotent
}
