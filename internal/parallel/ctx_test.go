package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestWithContextCompletesWhenLive: a live context changes nothing —
// every chunk runs and Err is nil.
func TestWithContextCompletesWhenLive(t *testing.T) {
	eng := New(4).WithContext(context.Background())
	var ran atomic.Int64
	eng.ForEachChunk(1000, 7, func(_, lo, hi int) { ran.Add(int64(hi - lo)) })
	if ran.Load() != 1000 {
		t.Fatalf("ran %d elements, want 1000", ran.Load())
	}
	if err := eng.Err(); err != nil {
		t.Fatalf("Err = %v on live context", err)
	}
}

// TestWithContextNil: a nil context is a no-op wrapper.
func TestWithContextNil(t *testing.T) {
	eng := New(2)
	if eng.WithContext(nil) != eng {
		t.Fatal("WithContext(nil) should return the receiver")
	}
}

// TestCancelStopsClaiming: cancelling mid-loop stops new chunks from
// being claimed; started chunks finish (no mid-write kills); the loop
// returns instead of hanging, and Err reports the cancellation.
func TestCancelStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		eng := New(workers).WithContext(ctx)
		var ran atomic.Int64
		var first atomic.Bool
		const chunks = 10000
		eng.ForEachChunk(chunks, 1, func(_, _, _ int) {
			// Cancel from whichever chunk executes first. Keying on chunk 0
			// is flaky: its claimer can be descheduled before running it
			// while the other workers churn through thousands of chunks.
			if first.CompareAndSwap(false, true) {
				cancel()
			}
			ran.Add(1)
		})
		if err := eng.Err(); err != context.Canceled {
			t.Fatalf("workers=%d: Err = %v, want Canceled", workers, err)
		}
		// The cancel lands while the first chunks are in flight: at most
		// workers chunks were already claimed plus a small race window.
		// Anything close to the full grid means the cancellation was
		// ignored.
		if n := ran.Load(); n >= chunks/2 {
			t.Fatalf("workers=%d: %d of %d chunks ran after cancel", workers, n, chunks)
		}
		cancel()
	}
}

// TestCancelForEachIndexErr: cancellation surfaces as the context error
// even when indices also fail, and does so deterministically.
func TestCancelForEachIndexErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead before the loop starts
	eng := New(4).WithContext(ctx)
	var ran atomic.Int64
	err := eng.ForEachIndexErr(100, func(i int) error { ran.Add(1); return nil })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d indices ran on a dead context", ran.Load())
	}
}

// TestCancelNoGoroutineLeak: a canceled loop leaves no helper
// goroutines behind.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		eng := New(8).WithContext(ctx)
		eng.ForEachChunk(1000, 1, func(c, _, _ int) {
			if c == 3 {
				cancel()
			}
		})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after canceled loops", before, runtime.NumGoroutine())
}

// TestDeterminismUnchangedByContext: a context-bound engine that never
// cancels produces bit-identical MapReduce results to a context-free
// one at every worker count.
func TestDeterminismUnchangedByContext(t *testing.T) {
	n := 10_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%97) * 1.0000001
	}
	sum := func(e *Engine) float64 {
		return MapReduce(e, n, 64, func(_, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	}
	want := sum(New(1))
	for _, workers := range []int{2, 8} {
		if got := sum(New(workers).WithContext(context.Background())); got != want {
			t.Fatalf("workers=%d with ctx: sum %v != serial %v", workers, got, want)
		}
	}
}
