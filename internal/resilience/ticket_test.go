package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestTicketEnqueueOverload(t *testing.T) {
	a := NewAdmission(1, 1)
	t1, err := a.Enqueue() // takes the slot
	if err != nil {
		t.Fatalf("first Enqueue: %v", err)
	}
	t2, err := a.Enqueue() // takes the queue position
	if err != nil {
		t.Fatalf("second Enqueue: %v", err)
	}
	if _, err := a.Enqueue(); !errors.Is(err, ErrOverload) {
		t.Fatalf("third Enqueue err = %v, want ErrOverload", err)
	}
	t1.Done()
	t2.Done()
	if act, wait := a.Depth(); act != 0 || wait != 0 {
		t.Fatalf("Depth after Done = (%d, %d), want (0, 0)", act, wait)
	}
}

func TestTicketStartBlocksUntilSlotFrees(t *testing.T) {
	a := NewAdmission(1, 1)
	t1, err := a.Enqueue()
	if err != nil {
		t.Fatalf("first Enqueue: %v", err)
	}
	t2, err := a.Enqueue()
	if err != nil {
		t.Fatalf("second Enqueue: %v", err)
	}
	started := make(chan error, 1)
	go func() { started <- t2.Start(context.Background()) }()
	select {
	case err := <-started:
		t.Fatalf("Start returned %v before the slot freed", err)
	case <-time.After(20 * time.Millisecond):
	}
	t1.Done()
	select {
	case err := <-started:
		if err != nil {
			t.Fatalf("Start after slot freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Start never unblocked after Done")
	}
	t2.Done()
	if act, wait := a.Depth(); act != 0 || wait != 0 {
		t.Fatalf("Depth = (%d, %d), want (0, 0)", act, wait)
	}
}

func TestTicketStartCanceledReleasesQueuePosition(t *testing.T) {
	a := NewAdmission(1, 1)
	t1, _ := a.Enqueue()
	t2, err := a.Enqueue()
	if err != nil {
		t.Fatalf("second Enqueue: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := t2.Start(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Start err = %v, want context.Canceled", err)
	}
	// The abandoned ticket's queue position must be free again...
	if _, wait := a.Depth(); wait != 0 {
		t.Fatalf("waiting = %d after abandoned Start, want 0", wait)
	}
	// ...and Done on the spent ticket must not double-release.
	t2.Done()
	t2.Done()
	if act, _ := a.Depth(); act != 1 {
		t.Fatalf("active = %d, want 1 (only the first ticket)", act)
	}
	t1.Done()
	if act, wait := a.Depth(); act != 0 || wait != 0 {
		t.Fatalf("Depth = (%d, %d), want (0, 0)", act, wait)
	}
}

func TestTicketStartImmediateWhenSlotHeld(t *testing.T) {
	a := NewAdmission(2, 0)
	tk, err := a.Enqueue()
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if err := tk.Start(context.Background()); err != nil {
		t.Fatalf("Start on an active ticket: %v", err)
	}
	tk.Done()
	tk.Done() // idempotent
	if act, wait := a.Depth(); act != 0 || wait != 0 {
		t.Fatalf("Depth = (%d, %d), want (0, 0)", act, wait)
	}
}

func TestTicketDoneFreesSlotForEnqueue(t *testing.T) {
	a := NewAdmission(1, 0)
	tk, err := a.Enqueue()
	if err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	// The ticket holds the only slot and there is no queue, so a second
	// Enqueue must refuse.
	if _, err := a.Enqueue(); !errors.Is(err, ErrOverload) {
		t.Fatalf("Enqueue err = %v, want ErrOverload while a ticket holds the slot", err)
	}
	tk.Done()
	next, err := a.Enqueue()
	if err != nil {
		t.Fatalf("Enqueue after ticket Done: %v", err)
	}
	next.Done()
}
