package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"simprof/internal/obs"
	"simprof/internal/obs/reqtrace"
)

// stripVolatile decodes a profile response body and removes the
// per-request fields (elapsed_ms) so bodies can be compared
// bit-for-bit across serving paths.
func stripVolatile(t testing.TB, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response %q is not JSON: %v", body, err)
	}
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// historyManifestSections fetches one history record and returns its
// manifest's deterministic sections (workload, phases, sampling) as
// canonical JSON — the parts that must agree across serving paths.
func historyManifestSections(t testing.TB, baseURL string, seq int) string {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/history/%d", baseURL, seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history %d: status %d body %s", seq, resp.StatusCode, body)
	}
	var rec struct {
		Manifest map[string]json.RawMessage `json:"manifest"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("workload=%s phases=%s sampling=%s",
		rec.Manifest["workload"], rec.Manifest["phases"], rec.Manifest["sampling"])
}

// TestBatchedResponsesBitIdentical: the served path (cache +
// coalescing + batcher) produces byte-identical response bodies and
// history manifests to the pipeline run directly (profile + persist)
// for the same request sequence — batching changes scheduling, never
// results.
func TestBatchedResponsesBitIdentical(t *testing.T) {
	_, batched := newTestServer(t, Config{})
	direct, directTS := newTestServer(t, Config{})

	traces := [][]byte{
		encodedTrace(t, 120, 3),
		encodedTrace(t, 200, 7),
		encodedTrace(t, 80, 11),
	}
	for i, data := range traces {
		n, seed := 10+2*i, uint64(i+1)
		resp, body := postTrace(t, fmt.Sprintf("%s/v1/profile?n=%d&seed=%d", batched.URL, n, seed), data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if h := resp.Header.Get("X-Simprof-Cache"); h != "miss" {
			t.Fatalf("trace %d: header %q, want miss", i, h)
		}

		ctx, cancel := ctxTimeout(t)
		out, err := direct.profile(ctx, data, n, seed)
		if err != nil {
			cancel()
			t.Fatalf("trace %d: direct pipeline: %v", i, err)
		}
		rec, err := direct.persist(ctx, out, n, seed)
		cancel()
		if err != nil {
			t.Fatalf("trace %d: direct persist: %v", i, err)
		}
		ci := out.Sp.CI(0.997)
		want, err := json.Marshal(ProfileResponse{
			Seq: rec.Seq, Key: rec.Key,
			Units: len(out.Trace.Units), K: out.Ph.K, Silhouette: out.Ph.Silhouette,
			N: n, EstCPI: out.Sp.EstCPI, SE: out.Sp.SE, CILo: ci.Lo(), CIHi: ci.Hi(),
			Alloc: out.Sp.Alloc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stripVolatile(t, body), stripVolatile(t, want); got != want {
			t.Fatalf("trace %d: served and direct bodies differ:\n%s\n%s", i, got, want)
		}
	}
	for seq := 1; seq <= len(traces); seq++ {
		mb := historyManifestSections(t, batched.URL, seq)
		md := historyManifestSections(t, directTS.URL, seq)
		if mb != md {
			t.Fatalf("seq %d: manifests differ:\n%s\n%s", seq, mb, md)
		}
	}
}

// TestCachedResponseBitIdentical: a cache hit returns the computed
// response byte-for-byte (modulo elapsed_ms), referencing the
// originally persisted history record instead of appending another.
func TestCachedResponseBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := encodedTrace(t, 150, 5)

	resp1, body1 := postTrace(t, ts.URL+"/v1/profile?n=12&seed=4", data)
	resp2, body2 := postTrace(t, ts.URL+"/v1/profile?n=12&seed=4", data)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d", resp1.StatusCode, resp2.StatusCode)
	}
	if h := resp1.Header.Get("X-Simprof-Cache"); h != "miss" {
		t.Fatalf("first header %q, want miss", h)
	}
	if h := resp2.Header.Get("X-Simprof-Cache"); h != "hit" {
		t.Fatalf("second header %q, want hit", h)
	}
	if got1, got2 := stripVolatile(t, body1), stripVolatile(t, body2); got1 != got2 {
		t.Fatalf("cached body differs from computed:\n%s\n%s", got1, got2)
	}

	// Dedup extends to the store: the duplicate upload appended nothing.
	resp, err := http.Get(ts.URL + "/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("history has %d records after a duplicate upload, want 1", len(rows))
	}
}

// TestIdenticalBytesDifferentOptionsMiss: the upload bytes alone are
// not the dedup key — the sampling options are part of it, so the same
// trace with different n or seed computes fresh.
func TestIdenticalBytesDifferentOptionsMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := encodedTrace(t, 100, 9)

	urls := []string{"/v1/profile?n=10&seed=1", "/v1/profile?n=12&seed=1", "/v1/profile?n=10&seed=2"}
	for i, u := range urls {
		resp, body := postTrace(t, ts.URL+u, data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
		if h := resp.Header.Get("X-Simprof-Cache"); h != "miss" {
			t.Fatalf("request %d (%s): header %q, want miss (options must be in the key)", i, u, h)
		}
	}
}

// TestCacheEvictionUnderPressure: a one-entry cache evicts LRU — the
// evicted key recomputes on its next request.
func TestCacheEvictionUnderPressure(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 1})
	a := encodedTrace(t, 100, 1)
	b := encodedTrace(t, 100, 2)

	post := func(data []byte) string {
		t.Helper()
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Simprof-Cache")
	}
	if h := post(a); h != "miss" {
		t.Fatalf("first A: %q, want miss", h)
	}
	if h := post(a); h != "hit" {
		t.Fatalf("second A: %q, want hit", h)
	}
	if h := post(b); h != "miss" {
		t.Fatalf("first B: %q, want miss", h)
	}
	if h := post(a); h != "miss" {
		t.Fatalf("A after eviction: %q, want miss", h)
	}
}

// TestCoalescedRequestsShareOneExecution: identical concurrent
// requests ride one pipeline execution; followers see the coalesced
// header and the same body. With request tracing on, the pipeline's
// spans land in the leader's request tree, under its batch.do span,
// even though the flight runs on a batch-flush goroutine.
func TestCoalescedRequestsShareOneExecution(t *testing.T) {
	leakCheck(t)
	withObs(t)
	// A 0.001ms tail bound force-keeps every trace.
	srv, ts := newTestServer(t, Config{
		Trace: &reqtrace.Config{Budget: 8, BucketBoundsMS: []float64{0.001}, Seed: 5},
	})
	var execs int
	var mu sync.Mutex
	gate := make(chan struct{})
	entered := make(chan struct{})
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		mu.Lock()
		execs++
		mu.Unlock()
		entered <- struct{}{}
		<-gate
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 6)

	type reply struct {
		header string
		body   string
		status int
	}
	replies := make(chan reply, 3)
	post := func(id string) {
		resp, body := postTraceWithID(t, ts.URL+"/v1/profile?n=10", data, id)
		replies <- reply{resp.Header.Get("X-Simprof-Cache"), stripVolatile(t, body), resp.StatusCode}
	}
	go post("leader")
	<-entered
	go post("follower-1")
	go post("follower-2")
	waitFor(t, func() bool {
		_, waiters, _, _ := srv.group.Stats()
		return waiters == 3
	})
	close(gate)

	got := map[string]int{}
	bodies := map[string]bool{}
	for i := 0; i < 3; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("status %d", r.status)
		}
		got[r.header]++
		bodies[r.body] = true
	}
	if got["miss"] != 1 || got["coalesced"] != 2 {
		t.Fatalf("headers = %v, want 1 miss + 2 coalesced", got)
	}
	if len(bodies) != 1 {
		t.Fatalf("coalesced bodies differ: %v", bodies)
	}
	if execs != 1 {
		t.Fatalf("pipeline ran %d times, want 1", execs)
	}

	tree := func(id string) string {
		var tr *reqtrace.Trace
		waitFor(t, func() bool { tr = srv.tracer.Get(id); return tr != nil })
		var nodes []string
		tr.Spans.Walk(func(sp *obs.Span, depth int) {
			node := strings.Repeat(">", depth) + sp.Name
			if src := sp.Attrs["source"]; src != "" {
				node += "[" + src + "]"
			}
			nodes = append(nodes, node)
		})
		return strings.Join(nodes, " ")
	}
	want := "request leader >batch.do[miss] >>batch.exec >>>phase.form >>>>phase.vectorize " +
		">>>>phase.feature_select >>>>phase.cluster >>>sampling.simprof"
	if got := tree("leader"); got != want {
		t.Fatalf("leader tree:\n got %s\nwant %s", got, want)
	}
	for _, id := range []string{"follower-1", "follower-2"} {
		if got, want := tree(id), "request "+id+" >batch.do[coalesced]"; got != want {
			t.Fatalf("%s tree: got %q, want %q", id, got, want)
		}
	}
}

// TestLeaderCancelHandsOffToFollowerHTTP: the request that started a
// flight aborting must not kill the shared execution — a concurrent
// identical request still gets the result.
func TestLeaderCancelHandsOffToFollowerHTTP(t *testing.T) {
	leakCheck(t)
	srv, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	entered := make(chan struct{})
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		entered <- struct{}{}
		select {
		case <-gate:
			return srv.profile(ctx, data, n, seed)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	data := encodedTrace(t, 100, 13)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/profile?n=10", bytes.NewReader(data))
		if err != nil {
			leaderDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-entered

	followerDone := make(chan reply2, 1)
	go func() {
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data)
		followerDone <- reply2{resp.StatusCode, resp.Header.Get("X-Simprof-Cache"), body}
	}()
	waitFor(t, func() bool {
		_, waiters, _, _ := srv.group.Stats()
		return waiters == 2
	})

	cancelLeader()
	if err := <-leaderDone; err == nil {
		t.Fatal("canceled leader request returned without error")
	}
	close(gate)
	r := <-followerDone
	if r.status != http.StatusOK {
		t.Fatalf("follower status %d body %s (execution died with the leader)", r.status, r.body)
	}
	if r.header != "coalesced" {
		t.Fatalf("follower header %q, want coalesced", r.header)
	}
}

type reply2 struct {
	status int
	header string
	body   []byte
}

// TestMaxBodyLimitBadInput: an upload over -max-body is refused as the
// caller's fault (400 bad_input), on the batched path.
func TestMaxBodyLimitBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	data := encodedTrace(t, 200, 3) // well over 64 bytes

	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Class != "bad_input" {
		t.Fatalf("class %q, want bad_input", e.Class)
	}
}

// TestChaosDuplicateStorm: a concurrent storm of duplicate uploads —
// some clients abandoning mid-flight — resolves with every surviving
// request answered consistently and no leaked goroutines.
func TestChaosDuplicateStorm(t *testing.T) {
	leakCheck(t)
	withObs(t)
	_, ts := newTestServer(t, Config{Concurrency: 2, Queue: 64})

	pool := [][]byte{
		encodedTrace(t, 80, 21),
		encodedTrace(t, 80, 22),
		encodedTrace(t, 80, 23),
	}
	rng := rand.New(rand.NewSource(99))
	const storm = 24
	var ok, canceled int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		data := pool[rng.Intn(len(pool))]
		abandon := rng.Intn(4) == 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if abandon {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/v1/profile?n=10", bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				canceled++
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests, http.StatusGatewayTimeout:
				// acceptable under storm backpressure
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request in the storm succeeded")
	}
	t.Logf("storm: %d ok, %d client-canceled of %d", ok, canceled, storm)
}
