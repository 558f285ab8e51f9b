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
		{"unavailable", wrap(Unavailable(errors.New("connection refused"))), ClassUnavailable, 503, 6},
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
