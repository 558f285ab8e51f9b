package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// TestNewFlightStartsAtOnce: a distinct key executes as soon as Do is
// called, even while another flight is still running — nothing holds
// a new flight back to group it with others.
func TestNewFlightStartsAtOnce(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var execs atomic.Int64
	g := NewGroup(Config[int, int, int]{
		Exec: func(ctx context.Context, key int, p int) (int, error) {
			execs.Add(1)
			if key == 0 { // the blocker that keeps the group busy
				<-block
			}
			return p * 2, nil
		},
	})
	go g.Do(context.Background(), 0, 0)
	waitFor(t, 2*time.Second, func() bool { return execs.Load() == 1 }, "blocker to start")

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, res, err := g.Do(context.Background(), 1, 21)
		if err != nil || v != 42 {
			t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
		}
		if res.Source != Miss {
			t.Errorf("Source = %v, want Miss", res.Source)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a distinct key waited behind a running flight")
	}
}

func TestCoalesceSharesOneExec(t *testing.T) {
	var execs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	g := NewGroup(Config[string, int, int]{
		Exec: func(ctx context.Context, key string, p int) (int, error) {
			execs.Add(1)
			close(started)
			<-release
			return p + 1, nil
		},
	})

	results := make(chan Source, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, res, err := g.Do(context.Background(), "k", 1)
		if err != nil {
			t.Errorf("leader Do: %v", err)
		}
		results <- res.Source
	}()
	<-started
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, res, err := g.Do(context.Background(), "k", 1)
			if err != nil || v != 2 {
				t.Errorf("follower Do = (%d, %v), want (2, nil)", v, err)
			}
			results <- res.Source
		}()
	}
	waitFor(t, 2*time.Second, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.flights["k"] != nil && g.flights["k"].refs == 3
	}, "followers to join the flight")
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("exec ran %d times, want 1", n)
	}
	srcs := map[Source]int{}
	for i := 0; i < 3; i++ {
		srcs[<-results]++
	}
	if srcs[Miss] != 1 || srcs[Coalesced] != 2 {
		t.Fatalf("sources = %v, want 1 Miss + 2 Coalesced", srcs)
	}
}

func TestLeaderCancelHandsOffToFollower(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var execCtx context.Context
	g := NewGroup(Config[string, int, int]{
		Exec: func(ctx context.Context, key string, p int) (int, error) {
			execCtx = ctx
			close(started)
			select {
			case <-release:
				return 7, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", 0)
		leaderDone <- err
	}()
	<-started

	followerDone := make(chan error, 1)
	var followerRes Result
	go func() {
		_, res, err := g.Do(context.Background(), "k", 0)
		followerRes = res
		followerDone <- err
	}()
	waitFor(t, 2*time.Second, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.flights["k"] != nil && g.flights["k"].refs == 2
	}, "follower to join the flight")

	// Cancel the leader: it must return its own context error, and the
	// execution must keep running for the follower.
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case <-execCtx.Done():
		t.Fatal("flight context canceled while a follower still waits")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-followerDone; err != nil {
		t.Fatalf("follower err = %v, want nil (handed-off result)", err)
	}
	if followerRes.Source != Coalesced {
		t.Fatalf("follower Source = %v, want Coalesced", followerRes.Source)
	}
}

func TestAllWaitersGoneCancelsFlight(t *testing.T) {
	started := make(chan struct{})
	execDone := make(chan error, 1)
	g := NewGroup(Config[string, int, int]{
		Exec: func(ctx context.Context, key string, p int) (int, error) {
			close(started)
			<-ctx.Done()
			execDone <- ctx.Err()
			return 0, ctx.Err()
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	go g.Do(ctx, "k", 0)
	<-started
	cancel()
	select {
	case err := <-execDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("exec ctx err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flight context never canceled after the last waiter left")
	}
}

// TestRejoinAfterAllWaitersLeftStartsFreshFlight: once every waiter
// has abandoned a flight, its context is canceled, so a later identical
// request with a live context must start a new flight instead of
// joining the dead one and inheriting its context.Canceled — even
// while the canceled execution is still winding down.
func TestRejoinAfterAllWaitersLeftStartsFreshFlight(t *testing.T) {
	started := make(chan struct{})
	aborted := make(chan struct{})
	release := make(chan struct{})
	var execs atomic.Int64
	g := NewGroup(Config[string, int, int]{
		Exec: func(ctx context.Context, key string, p int) (int, error) {
			if execs.Add(1) > 1 {
				return 42, nil
			}
			close(started)
			<-ctx.Done()
			close(aborted)
			<-release // the abandoned execution notices its cancel late
			return 0, ctx.Err()
		},
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctxA, "k", 0)
		aDone <- err
	}()
	<-started
	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter err = %v, want Canceled", err)
	}
	<-aborted

	type outcome struct {
		v   int
		res Result
		err error
	}
	bDone := make(chan outcome, 1)
	go func() {
		v, res, err := g.Do(context.Background(), "k", 0)
		bDone <- outcome{v, res, err}
	}()
	var b outcome
	select {
	case b = <-bDone:
	case <-time.After(2 * time.Second):
		close(release)
		b = <-bDone
		t.Fatalf("live request joined the abandoned flight: v=%d source=%v err=%v", b.v, b.res.Source, b.err)
	}
	if b.err != nil || b.v != 42 || b.res.Source != Miss {
		t.Fatalf("live request = (%d, %v, %v), want (42, miss, nil) from a fresh flight", b.v, b.res.Source, b.err)
	}
}

func TestCacheHitSkipsExec(t *testing.T) {
	var execs atomic.Int64
	g := NewGroup(Config[string, int, string]{
		Cache: NewCache[string, string](8, 1<<20),
		Size:  func(v string) int64 { return int64(len(v)) },
		Exec: func(ctx context.Context, key string, p int) (string, error) {
			execs.Add(1)
			return fmt.Sprintf("v%d", p), nil
		},
	})

	v1, res1, err := g.Do(context.Background(), "k", 5)
	if err != nil || res1.Source != Miss {
		t.Fatalf("first Do = (%q, %v, %v), want miss", v1, res1.Source, err)
	}
	v2, res2, err := g.Do(context.Background(), "k", 5)
	if err != nil || v2 != v1 {
		t.Fatalf("second Do = (%q, %v), want (%q, nil)", v2, err, v1)
	}
	if res2.Source != Hit {
		t.Fatalf("second Source = %v, want Hit", res2.Source)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("exec ran %d times, want 1", n)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	var execs atomic.Int64
	boom := errors.New("boom")
	g := NewGroup(Config[string, int, int]{
		Cache: NewCache[string, int](8, 1<<20),
		Exec: func(ctx context.Context, key string, p int) (int, error) {
			if execs.Add(1) == 1 {
				return 0, boom
			}
			return 9, nil
		},
	})

	if _, _, err := g.Do(context.Background(), "k", 0); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, _, err := g.Do(context.Background(), "k", 0)
	if err != nil || v != 9 {
		t.Fatalf("second Do = (%d, %v), want (9, nil): error was cached", v, err)
	}
}

// fakeTicket counts Start/Done to check flights hold admission for
// exactly the execution.
type fakeTicket struct {
	started atomic.Int64
	done    atomic.Int64
}

func (t *fakeTicket) Start(ctx context.Context) error { t.started.Add(1); return nil }
func (t *fakeTicket) Done()                           { t.done.Add(1) }

func TestAdmitRefusalAtEnqueue(t *testing.T) {
	overload := errors.New("overloaded")
	var admitted atomic.Int64
	tk := &fakeTicket{}
	g := NewGroup(Config[int, int, int]{
		Admit: func() (Ticket, error) {
			if admitted.Add(1) > 1 {
				return nil, overload
			}
			return tk, nil
		},
		Exec: func(ctx context.Context, key int, p int) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return key, nil
		},
	})

	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), 1, 0)
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return admitted.Load() == 1 }, "first admit")

	// Distinct key while the first runs: refused at enqueue, verbatim.
	_, _, err := g.Do(context.Background(), 2, 0)
	if !errors.Is(err, overload) {
		t.Fatalf("second Do err = %v, want the Admit error verbatim", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first Do err = %v", err)
	}
	if tk.started.Load() != 1 || tk.done.Load() != 1 {
		t.Fatalf("ticket Start/Done = %d/%d, want 1/1", tk.started.Load(), tk.done.Load())
	}
}

// slowTicket's Start blocks until released, standing in for a queued
// admission ticket waiting for an execution slot.
type slowTicket struct{ release chan struct{} }

func (t *slowTicket) Start(ctx context.Context) error { <-t.release; return nil }
func (t *slowTicket) Done()                           {}

// TestEnqueueWaitCoversTicketStart: Result.EnqueueWait is the time
// from admission until Ticket.Start returned — the wait for an
// execution slot — not just the goroutine hand-off.
func TestEnqueueWaitCoversTicketStart(t *testing.T) {
	const hold = 50 * time.Millisecond
	tk := &slowTicket{release: make(chan struct{})}
	g := NewGroup(Config[int, int, int]{
		Admit: func() (Ticket, error) { return tk, nil },
		Exec:  func(ctx context.Context, key int, p int) (int, error) { return key, nil },
	})
	time.AfterFunc(hold, func() { close(tk.release) })
	_, res, err := g.Do(context.Background(), 1, 0)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	// The release timer starts just before Do stamps the admission, so
	// allow a little slack below the full hold.
	if res.EnqueueWait < hold*8/10 {
		t.Fatalf("EnqueueWait = %v, want about the %v Ticket.Start wait", res.EnqueueWait, hold)
	}
}

func TestCacheEntryBound(t *testing.T) {
	c := NewCache[int, int](2, 1<<20)
	c.Put(1, 1, 1)
	c.Put(2, 2, 1)
	c.Put(3, 3, 1)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("oldest entry survived the entry bound")
	}
	for _, k := range []int{2, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %d missing", k)
		}
	}
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache[string, string](100, 100)
	c.Put("a", "a", 60)
	c.Put("b", "b", 30)
	if got := c.Bytes(); got != 90 {
		t.Fatalf("Bytes = %d, want 90", got)
	}
	// 40 more breaches the 100-byte budget: "a" (cold end) must go.
	c.Put("c", "c", 40)
	if _, ok := c.Get("a"); ok {
		t.Fatal("cold entry survived the byte bound")
	}
	if got := c.Bytes(); got != 70 {
		t.Fatalf("Bytes after eviction = %d, want 70", got)
	}
	// Recency: touch "b", then overflow — "c" should be the victim.
	c.Get("b")
	c.Put("d", "d", 50)
	if _, ok := c.Get("c"); ok {
		t.Fatal("LRU order ignored recency refresh")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

func TestCacheOversizeValueNotAdmitted(t *testing.T) {
	c := NewCache[string, string](10, 100)
	c.Put("small", "s", 10)
	c.Put("huge", "h", 101)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("value larger than the whole byte budget was admitted")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("oversize Put evicted resident entries")
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache[string, string](10, 100)
	c.Put("k", "old", 40)
	c.Put("k", "new", 60)
	if v, ok := c.Get("k"); !ok || v != "new" {
		t.Fatalf("Get = (%q, %v), want updated value", v, ok)
	}
	if c.Len() != 1 || c.Bytes() != 60 {
		t.Fatalf("Len/Bytes = %d/%d, want 1/60", c.Len(), c.Bytes())
	}
}
