// Package resilience is the substrate simprofd (and any long-running
// SimProf consumer) degrades gracefully on: a uniform error taxonomy
// with HTTP-status and CLI-exit-code mappings, bounded-queue admission
// with backpressure, and a drain controller for graceful shutdown.
//
// The design rule throughout: every refusal is *typed*. A request that
// cannot run fails with a sentinel the caller can classify — timeout,
// overload, unavailable, bad input — never a bare string, so servers
// pick the right status code (429 vs 503 vs 504), clients know whether
// retrying can help, and the chaos harness can assert the exact failure
// mode an injected fault must produce.
package resilience

import (
	"context"
	"errors"
	"fmt"
)

// Class partitions every pipeline and service error into the buckets
// the taxonomy maps to statuses and exit codes. The zero value is
// ClassOK.
type Class int

const (
	// ClassOK: no error.
	ClassOK Class = iota
	// ClassInternal: an unexpected failure in our own code or state —
	// the residual bucket every unclassified error lands in.
	ClassInternal
	// ClassBadInput: the caller's payload is at fault (malformed trace,
	// invalid parameters). Retrying the same input cannot succeed.
	ClassBadInput
	// ClassTimeout: the work exceeded its deadline
	// (context.DeadlineExceeded anywhere in the chain).
	ClassTimeout
	// ClassOverload: admission refused the work because the queue was
	// full. Retrying after backoff is expected to succeed.
	ClassOverload
	// ClassUnavailable: the service is refusing work for its own health
	// (draining for shutdown) or cannot reach a dependency. Retry later.
	ClassUnavailable
	// ClassCanceled: the caller abandoned the work
	// (context.Canceled anywhere in the chain).
	ClassCanceled
)

// String names the class for logs and JSON error bodies.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassBadInput:
		return "bad_input"
	case ClassTimeout:
		return "timeout"
	case ClassOverload:
		return "overload"
	case ClassUnavailable:
		return "unavailable"
	case ClassCanceled:
		return "canceled"
	default:
		return "internal"
	}
}

// Sentinel errors of the taxonomy. Components wrap these (never return
// them bare when context helps) so errors.Is classification survives
// any number of fmt.Errorf("...: %w") layers.
var (
	// ErrOverload: a bounded queue was full — backpressure, not failure.
	ErrOverload = errors.New("resilience: overloaded, queue full")
	// ErrDraining: the service is shutting down and not accepting work.
	ErrDraining = errors.New("resilience: draining for shutdown")
	// ErrBadInput marks caller-at-fault errors; wrap with BadInput.
	ErrBadInput = errors.New("resilience: bad input")
	// ErrUnavailable marks a dependency that cannot be reached at all
	// (connection refused, DNS failure); wrap with Unavailable.
	ErrUnavailable = errors.New("resilience: unavailable")
)

// BadInput marks err as caller-at-fault: Classify returns ClassBadInput
// for the result (and anything wrapping it). A nil err stays nil.
func BadInput(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrBadInput, err)
}

// Unavailable marks err as a dependency being unreachable: Classify
// returns ClassUnavailable. A nil err stays nil.
func Unavailable(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrUnavailable, err)
}

// Classify maps any error to its taxonomy class. Wrapped sentinels are
// found with errors.Is, so classification is stable across "%w" chains.
// Order matters only for errors carrying several marks, which the
// components never produce.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, ErrBadInput):
		return ClassBadInput
	case errors.Is(err, ErrOverload):
		return ClassOverload
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		return ClassUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	default:
		return ClassInternal
	}
}

// HTTPStatus maps a class to the status code simprofd answers with.
// 429 and 503 responses should carry a Retry-After header; 499 is the
// de-facto "client closed request" code (the client is gone, the code
// only shows in logs).
func (c Class) HTTPStatus() int {
	switch c {
	case ClassOK:
		return 200
	case ClassBadInput:
		return 400
	case ClassTimeout:
		return 504
	case ClassOverload:
		return 429
	case ClassUnavailable:
		return 503
	case ClassCanceled:
		return 499
	default:
		return 500
	}
}

// ExitCode maps a class to the uniform CLI exit code. 2 is reserved
// for usage errors (flag parsing), which the cmd layer detects before
// classification.
func (c Class) ExitCode() int {
	switch c {
	case ClassOK:
		return 0
	case ClassBadInput:
		return 3
	case ClassTimeout:
		return 4
	case ClassOverload:
		return 5
	case ClassUnavailable:
		return 6
	case ClassCanceled:
		return 7
	default:
		return 1
	}
}
