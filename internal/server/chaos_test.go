// Chaos harness: every test injects a fault — stalled clients,
// mid-request cancellation, torn history appends, pipeline crashes,
// overload, drain during in-flight work — and asserts the three
// service invariants: (1) every fault surfaces as a typed error from
// the resilience taxonomy (or a clean recovery), (2) no goroutines
// leak, (3) the history store never serves a corrupt record.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"simprof/internal/faults"
	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/phase"
	"simprof/internal/resilience"
	"simprof/internal/trace"
)

// leakCheck snapshots the goroutine count and fails the test if it has
// not settled back by the end (with retries — the HTTP machinery winds
// down asynchronously).
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var now int
		for time.Now().Before(deadline) {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutines grew from %d to %d — leak", before, now)
	})
}

// withObs enables telemetry for the test and restores the previous
// state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	was := obs.Enabled()
	obs.Enable()
	t.Cleanup(func() {
		if !was {
			obs.Disable()
		}
	})
}

// TestChaosMidRequestCancel: a client that abandons its request stops
// the pipeline's CPU work — observed through the parallel engine's
// abandonment counters, which only move when kernel loops cut out
// early.
func TestChaosMidRequestCancel(t *testing.T) {
	leakCheck(t)
	withObs(t)
	abandoned := obs.NewCounter("parallel.chunks_abandoned", "")
	canceledLoops := obs.NewCounter("parallel.ctx_canceled_loops", "")
	before, beforeLoops := abandoned.Value(), canceledLoops.Value()

	srv, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	// Seam: decode outside the request context (the upload is fine),
	// then run phase formation under the canceled request context — the
	// kernels must abandon their chunk grids.
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		close(started)
		<-ctx.Done()
		tr, err := trace.DecodeBytesCtx(context.Background(), data)
		if err != nil {
			return nil, err
		}
		_, ferr := phase.FormCtx(ctx, tr, phase.Options{Seed: seed, Workers: 4})
		if ferr == nil {
			return nil, errors.New("formation succeeded under a dead context")
		}
		return nil, ferr
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/profile", bytes.NewReader(encodedTrace(t, 300, 5)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("abandoned request got status %d", resp.StatusCode)
		}
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want its own cancellation", err)
	}

	// The pipeline must have cut loops short, not run them to completion.
	waitFor(t, func() bool { return abandoned.Value() > before })
	if canceledLoops.Value() <= beforeLoops {
		t.Fatal("no loop recorded a context cancellation")
	}
}

// waitFor polls cond with a deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// stalledBody is an upload body that delivers nothing until its timer
// fires, then EOFs. The stall must be bounded (not a forever-block):
// the HTTP server drains unread request bodies after the handler
// returns, and an unbounded stall would wedge that drain rather than
// exercise the handler's deadline.
type stalledBody struct{ release <-chan time.Time }

func (b *stalledBody) Read(p []byte) (int, error) {
	<-b.release
	return 0, io.EOF
}

// TestChaosStalledClient: a client that sends headers and then stalls
// its body past the request deadline gets 504 timeout — the body read
// fails at the deadline instead of hanging the handler.
func TestChaosStalledClient(t *testing.T) {
	leakCheck(t)
	_, ts := newTestServer(t, Config{Timeout: 100 * time.Millisecond})
	body := &stalledBody{release: time.After(600 * time.Millisecond)}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stalled upload should yield a response, got %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", resp.StatusCode, out)
	}
	if e := decodeError(t, out); e.Class != "timeout" {
		t.Fatalf("class %q, want timeout", e.Class)
	}
}

// TestChaosTornAppendRecovery: a writer killed mid-append (simulated
// with the faults torn-write channel) leaves a torn tail; the next
// server boot recovers it, serves only committed records, and resumes
// the sequence correctly.
func TestChaosTornAppendRecovery(t *testing.T) {
	leakCheck(t)
	path := filepath.Join(t.TempDir(), "history.jsonl")
	_, ts := newTestServer(t, Config{HistoryPath: path})
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed profile: %d %s", resp.StatusCode, body)
	}

	// Kill-during-append: a full record line goes through a torn
	// writer, so only a prefix reaches the file and the writer dies
	// with the typed error.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(&history.Record{Seq: 2, Key: "torn"})
	w := faults.NewIO(faults.Config{TornWrite: 1, Seed: 3}).Writer(f)
	if _, err := w.Write(append(line, '\n')); !errors.Is(err, faults.ErrTornWrite) {
		t.Fatalf("torn writer returned %v", err)
	}
	f.Close()

	// Reboot on the damaged store.
	srv2, err := New(Config{HistoryPath: path})
	if err != nil {
		t.Fatalf("boot on torn store: %v", err)
	}
	recs, skipped, err := history.Open(path).Records()
	if err != nil || skipped != 0 {
		t.Fatalf("store after recovery: skipped=%d err=%v", skipped, err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered store has %d records, want the 1 committed", len(recs))
	}
	// The sequence resumes without colliding.
	if _, err := srv2.append(&history.Record{Key: "next"}); err != nil {
		t.Fatal(err)
	}
	recs, _, _ = history.Open(path).Records()
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("post-recovery append: %d records, last seq %d", len(recs), recs[len(recs)-1].Seq)
	}
}

// TestChaosInternalFailuresNeverRefuse: a run of internal pipeline
// failures is answered request by request — each one runs the
// pipeline and gets 500 internal — and never turns into refusals:
// readiness stays 200 and the next good upload succeeds at once.
func TestChaosInternalFailuresNeverRefuse(t *testing.T) {
	leakCheck(t)
	srv, ts := newTestServer(t, Config{})
	var failing atomic.Bool
	var calls atomic.Int64
	failing.Store(true)
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		calls.Add(1)
		if failing.Load() {
			return nil, errors.New("pipeline exploded") // internal class
		}
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 2)

	const failures = 8
	for i := 0; i < failures; i++ {
		resp, body := postTrace(t, ts.URL+"/v1/profile", data)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d body %s", i, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Class != "internal" {
			t.Fatalf("failure %d: class %q, want internal", i, e.Class)
		}
	}
	if got := calls.Load(); got != failures {
		t.Fatalf("pipeline ran %d times for %d requests", got, failures)
	}
	assertReady(t, ts.URL)

	failing.Store(false)
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good upload after the failures: status %d body %s", resp.StatusCode, body)
	}
}

// TestChaosDeadlineExpiryStaysReady: uploads that outlive their
// deadline on the real pipeline get 504 timeout, and a run of them
// leaves readiness at 200 — expired requests are the caller's budget,
// not a reason to refuse the next caller.
func TestChaosDeadlineExpiryStaysReady(t *testing.T) {
	leakCheck(t)
	_, ts := newTestServer(t, Config{Timeout: time.Millisecond})
	data := encodedTrace(t, 300, 9)
	for i := 0; i < 20; i++ {
		resp, body := postTrace(t, fmt.Sprintf("%s/v1/profile?seed=%d", ts.URL, i+1), data)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("upload %d: status %d, want 504; body %s", i, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Class != "timeout" {
			t.Fatalf("upload %d: class %q, want timeout", i, e.Class)
		}
	}
	assertReady(t, ts.URL)
}

// assertReady fails the test unless /readyz answers 200.
func assertReady(t *testing.T, base string) {
	t.Helper()
	r, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d, want 200", r.StatusCode)
	}
}

// TestChaosOverloadBackpressure: with one execution slot and no queue,
// a second concurrent request is refused immediately with 429 +
// Retry-After instead of waiting.
func TestChaosOverloadBackpressure(t *testing.T) {
	leakCheck(t)
	srv, ts := newTestServer(t, Config{Concurrency: 1, Queue: -1})
	entered := make(chan struct{})
	gate := make(chan struct{})
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		entered <- struct{}{}
		<-gate
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 3)

	first := make(chan int, 1)
	go func() {
		resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10", data)
		first <- resp.StatusCode
	}()
	<-entered

	// Distinct options so the second request is new work: an identical
	// request would coalesce onto the in-flight one instead of needing
	// (and being refused) admission.
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10&seed=2", data)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Class != "overload" {
		t.Fatalf("class %q, want overload", e.Class)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", code)
	}
}

// TestChaosDrainWithInFlight: draining refuses new work but lets the
// in-flight request finish; the drain budget reports honestly when
// work is still running.
func TestChaosDrainWithInFlight(t *testing.T) {
	leakCheck(t)
	srv, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	gate := make(chan struct{})
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		entered <- struct{}{}
		<-gate
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 4)

	first := make(chan int, 1)
	go func() {
		resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10", data)
		first <- resp.StatusCode
	}()
	<-entered
	srv.BeginDrain()

	// New work: refused.
	resp, body := postTrace(t, ts.URL+"/v1/profile", data)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}

	// Budget expires with the request still running.
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with in-flight work = %v, want deadline", err)
	}

	// Release: the in-flight request completes, the drain finishes.
	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain", code)
	}
	ctx, cancel2 := ctxTimeout(t)
	defer cancel2()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after completion: %v", err)
	}
}

// TestChaosStoreFailureNotRetried: one failed append fails the request
// even though the next attempt would succeed. After a failed fsync the
// kernel may drop the dirty pages and report the next fsync clean, so a
// retry could acknowledge a record that is not on disk. The request
// gets 500 internal, the store stays empty, and the next upload is
// persisted as seq 1.
func TestChaosStoreFailureNotRetried(t *testing.T) {
	leakCheck(t)
	path := filepath.Join(t.TempDir(), "history.jsonl")
	srv, ts := newTestServer(t, Config{HistoryPath: path})
	store := history.OpenDurable(path)
	var attempts atomic.Int64
	srv.appendFn = func(r *history.Record) (*history.Record, error) {
		if attempts.Add(1) == 1 {
			return nil, errors.New("fsync: input/output error")
		}
		return store.Append(r)
	}
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 5))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d body %s, want 500", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Class != "internal" {
		t.Fatalf("class %q, want internal", e.Class)
	}
	if attempts.Load() != 1 {
		t.Fatalf("append attempted %d times, want 1", attempts.Load())
	}
	recs, _, err := history.Open(path).Records()
	if err != nil || len(recs) != 0 {
		t.Fatalf("store: %d records, err %v; want none", len(recs), err)
	}

	resp, body = postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next upload: status %d body %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Seq != 1 {
		t.Fatalf("next upload persisted as seq %d, want 1", pr.Seq)
	}
}

// TestChaosStoreDown: a store that is down fails the request on the
// first attempt with 500 internal — a typed failure, not a hang or a
// lie.
func TestChaosStoreDown(t *testing.T) {
	leakCheck(t)
	srv, ts := newTestServer(t, Config{})
	var attempts atomic.Int64
	srv.appendFn = func(r *history.Record) (*history.Record, error) {
		attempts.Add(1)
		return nil, errors.New("disk gone")
	}
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 6))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Class != "internal" {
		t.Fatalf("class %q, want internal", e.Class)
	}
	if attempts.Load() != 1 {
		t.Fatalf("append attempted %d times, want 1", attempts.Load())
	}
}

// TestChaosCorruptUpload: a bit-flipped trace (the faults corruption
// channel) is refused with 400 bad_input — never a panic, never a
// half-decoded profile.
func TestChaosCorruptUpload(t *testing.T) {
	leakCheck(t)
	_, ts := newTestServer(t, Config{})
	clean := encodedTrace(t, 100, 7)
	for flips := 1; flips <= 64; flips *= 4 {
		corrupt := faults.CorruptBytes(clean, flips, uint64(flips))
		resp, body := postTrace(t, ts.URL+"/v1/profile", corrupt)
		if resp.StatusCode == http.StatusOK {
			// A flip the codec provably tolerated (e.g. in padding) is a
			// legal decode, not a fault; only crashes/hangs are failures.
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("flips=%d: status %d, want 400; body %s", flips, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Class != "bad_input" {
			t.Fatalf("flips=%d: class %q, want bad_input", flips, e.Class)
		}
	}
}

// TestChaosMixedStorm: a burst of every client-side fault at once —
// garbage, cancels, empty bodies — leaves the service healthy: a
// well-formed request still succeeds and nothing leaked.
func TestChaosMixedStorm(t *testing.T) {
	leakCheck(t)
	_, ts := newTestServer(t, Config{Timeout: 2 * time.Second})
	data := encodedTrace(t, 100, 8)
	for i := 0; i < 10; i++ {
		switch i % 3 {
		case 0:
			postTrace(t, ts.URL+"/v1/profile", []byte("garbage"))
		case 1:
			postTrace(t, ts.URL+"/v1/profile", nil)
		case 2:
			ctx, cancel := context.WithCancel(context.Background())
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/profile", bytes.NewReader(data))
			go cancel()
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy request after the storm: %d %s", resp.StatusCode, body)
	}
	if _, ok := interface{}(resilience.ClassOK).(fmt.Stringer); !ok {
		t.Fatal("taxonomy classes must render for error envelopes")
	}
}
