package resilience

import (
	"context"
	"fmt"
	"sync"

	"simprof/internal/obs"
)

var (
	obsAdmitted = obs.NewCounter("resilience.admitted",
		"requests admitted to a bounded queue (running immediately or queued)")
	obsAdmitRejected = obs.NewCounter("resilience.admit_rejected",
		"requests refused with backpressure because the queue was full")
	obsAdmitAbandoned = obs.NewCounter("resilience.admit_abandoned",
		"queued requests whose caller gave up (deadline/cancel) before a slot freed")
	obsQueueDepth = obs.NewGauge("resilience.queue_depth",
		"requests currently waiting for an execution slot")
)

// Admission is bounded-queue admission control: at most `workers`
// callers hold execution slots at once, at most `queue` more wait for
// one, and everything beyond that is refused immediately with
// ErrOverload — backpressure instead of unbounded latency. Waiting
// callers leave (without leaking their place) when their context ends.
type Admission struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	queue   int
	active  int
	waiting int
}

// NewAdmission builds an admission controller with the given execution
// and queue capacities. workers < 1 behaves as 1; queue < 0 as 0.
func NewAdmission(workers, queue int) *Admission {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	a := &Admission{workers: workers, queue: queue}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Ticket is two-phase admission for batched execution: Enqueue claims
// capacity without blocking (the refusal — 429 — happens at enqueue
// time), Start blocks until an execution slot frees (the batch flush
// promotes queued items as slots open), Done releases whatever the
// ticket holds. At most `workers` tickets are started at once, at most
// `queue` more sit enqueued, and Enqueue beyond that refuses with
// ErrOverload immediately.
type Ticket struct {
	a     *Admission
	mu    sync.Mutex
	state int // ticketQueued | ticketActive | ticketDone
}

const (
	ticketQueued = iota
	ticketActive
	ticketDone
)

// Enqueue claims admission capacity without blocking: an execution
// slot when one is free, else a bounded queue position, else an
// immediate ErrOverload. The returned ticket must be Done exactly once
// (Start in between is optional but required before doing the work it
// gates).
func (a *Admission) Enqueue() (*Ticket, error) {
	a.mu.Lock()
	if a.active < a.workers {
		a.active++
		a.mu.Unlock()
		obsAdmitted.Inc()
		return &Ticket{a: a, state: ticketActive}, nil
	}
	if a.waiting >= a.queue {
		a.mu.Unlock()
		obsAdmitRejected.Inc()
		return nil, fmt.Errorf("%w (%d running, %d queued)", ErrOverload, a.workers, a.queue)
	}
	a.waiting++
	obsQueueDepth.Set(float64(a.waiting))
	a.mu.Unlock()
	obsAdmitted.Inc()
	return &Ticket{a: a, state: ticketQueued}, nil
}

// Start blocks until the ticket holds an execution slot, or until ctx
// ends — in which case the ticket's queue position is released and the
// context error returned (the ticket is then spent; Done is a no-op).
// A ticket that claimed a slot at Enqueue time returns immediately.
func (t *Ticket) Start(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != ticketQueued {
		return nil
	}
	a := t.a
	a.mu.Lock()

	// Wake this waiter when the context ends. The watcher exits as soon
	// as stop is closed, so Start never leaks a goroutine past its own
	// return.
	stop := make(chan struct{})
	if done := ctx.Done(); done != nil {
		go func() {
			select {
			case <-done:
				a.mu.Lock()
				a.cond.Broadcast()
				a.mu.Unlock()
			case <-stop:
			}
		}()
	}
	defer close(stop)

	for a.active >= a.workers {
		if err := ctx.Err(); err != nil {
			a.waiting--
			obsQueueDepth.Set(float64(a.waiting))
			a.mu.Unlock()
			obsAdmitAbandoned.Inc()
			t.state = ticketDone
			return err
		}
		a.cond.Wait()
	}
	a.waiting--
	obsQueueDepth.Set(float64(a.waiting))
	a.active++
	a.mu.Unlock()
	t.state = ticketActive
	return nil
}

// Done releases the ticket's slot or queue position. Idempotent.
func (t *Ticket) Done() {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.a
	switch t.state {
	case ticketActive:
		a.mu.Lock()
		a.active--
		a.cond.Broadcast()
		a.mu.Unlock()
	case ticketQueued:
		a.mu.Lock()
		a.waiting--
		obsQueueDepth.Set(float64(a.waiting))
		a.cond.Broadcast()
		a.mu.Unlock()
	}
	t.state = ticketDone
}

// Depth reports (active, waiting) for health endpoints and tests.
func (a *Admission) Depth() (active, waiting int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active, a.waiting
}
