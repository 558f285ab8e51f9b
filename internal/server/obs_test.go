package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simprof/internal/obs"
	"simprof/internal/stats"
)

// syncBuffer is a race-safe io.Writer for capturing the access log,
// which is written from the logger's own goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// steppedClock is an injectable time source for the SLO tracker. It is
// mutex-guarded because request handlers read it from the httptest
// server's goroutines while the test advances it.
type steppedClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *steppedClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *steppedClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// getBody GETs a URL and returns the response and full body.
func getBody(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// getMetrics fetches and decodes the /v1/metrics JSON snapshot.
func getMetrics(t testing.TB, base string) (*http.Response, []obs.Metric) {
	t.Helper()
	resp, body := getBody(t, base+"/v1/metrics")
	var ms []obs.Metric
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatalf("/v1/metrics body is not a metric list: %v\n%s", err, body)
	}
	return resp, ms
}

// findMetric returns the first snapshot entry matching name and label
// key, or nil.
func findMetric(ms []obs.Metric, name, labelsKey string) *obs.Metric {
	for i := range ms {
		if ms[i].Name == name && ms[i].LabelsKey() == labelsKey {
			return &ms[i]
		}
	}
	return nil
}

// TestMetricsEndpoints: /v1/metrics stays JSON with the right
// Content-Type, and /metrics serves the same registry in the
// Prometheus text exposition format, labeled families included.
func TestMetricsEndpoints(t *testing.T) {
	withObs(t)
	_, ts := newTestServer(t, Config{})

	if resp, _ := postTrace(t, ts.URL+"/v1/profile?n=20&seed=3", encodedTrace(t, 150, 9)); resp.StatusCode != http.StatusOK {
		t.Fatalf("profile upload failed: %d", resp.StatusCode)
	}

	resp, ms := getMetrics(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/v1/metrics Content-Type = %q, want application/json", ct)
	}
	m := findMetric(ms, "server.requests_by_route", "route=/v1/profile,status=200")
	if m == nil || m.Value < 1 {
		t.Fatalf("labeled route counter missing from JSON snapshot: %+v", m)
	}
	if m := findMetric(ms, "server.request_seconds", "route=/v1/profile"); m == nil || m.Kind != "histogram" || len(m.Buckets) == 0 {
		t.Fatalf("labeled latency histogram missing from JSON snapshot: %+v", m)
	}

	promResp, promBody := getBody(t, ts.URL+"/metrics")
	if ct := promResp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	text := string(promBody)
	for _, want := range []string{
		"# TYPE server_requests_by_route counter",
		`server_requests_by_route{route="/v1/profile",status="200"}`,
		"# TYPE server_request_seconds histogram",
		`server_request_seconds_bucket{route="/v1/profile",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestMetricsDeterministicUnderTraffic: every snapshot served while
// profile traffic is in flight is totally ordered by (name, kind,
// labels) — scrapers never see two orderings of the same registry.
func TestMetricsDeterministicUnderTraffic(t *testing.T) {
	leakCheck(t)
	withObs(t)
	_, ts := newTestServer(t, Config{Concurrency: 4})
	data := encodedTrace(t, 100, 11)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/profile?n=10", "application/octet-stream", bytes.NewReader(data))
				if err != nil {
					return
				}
				resp.Body.Close()
			}
		}()
	}

	for i := 0; i < 20; i++ {
		_, ms := getMetrics(t, ts.URL)
		if len(ms) == 0 {
			t.Fatal("empty snapshot under load")
		}
		sorted := sort.SliceIsSorted(ms, func(a, b int) bool {
			x, y := ms[a], ms[b]
			if x.Name != y.Name {
				return x.Name < y.Name
			}
			if x.Kind != y.Kind {
				return x.Kind < y.Kind
			}
			return x.LabelsKey() < y.LabelsKey()
		})
		if !sorted {
			t.Fatalf("snapshot %d not ordered by (name, kind, labels)", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAccessLog: one JSON line per request with identity, class and
// timing breakdown; caller-provided request IDs are echoed, generated
// ones are deterministic in the configured seed; Close appends the
// shutdown line after the queue drains.
func TestAccessLog(t *testing.T) {
	leakCheck(t)
	withObs(t)
	buf := &syncBuffer{}
	srv, ts := newTestServer(t, Config{AccessLog: buf, RequestIDSeed: 42})

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile?n=15&seed=2",
		bytes.NewReader(encodedTrace(t, 120, 4)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-chose-this")
	req.Header.Set("X-Simprof-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chose-this" {
		t.Fatalf("caller request ID not echoed: %q", got)
	}

	// No header: the ID comes from SplitSeed(seed, arrival index) —
	// reproducible given the flagged seed.
	hresp, _ := getBody(t, ts.URL+"/healthz")
	wantID := fmt.Sprintf("%016x", stats.SplitSeed(42, 1))
	if got := hresp.Header.Get("X-Request-Id"); got != wantID {
		t.Fatalf("generated request ID = %q, want %q", got, wantID)
	}

	// A malformed upload logs with its error class.
	if resp, _ := postTrace(t, ts.URL+"/v1/profile", []byte("not a trace")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status %d, want 400", resp.StatusCode)
	}

	// Close drains the queue and flushes the final shutdown line.
	srv.Close()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("access log has %d lines, want 3 requests + shutdown:\n%s", len(lines), buf.String())
	}

	var first accessEntry
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not an access entry: %v", err)
	}
	if first.ID != "caller-chose-this" || first.Route != "/v1/profile" ||
		first.Tenant != "acme" || first.Status != 200 || first.Class != "ok" {
		t.Fatalf("profile line wrong: %+v", first)
	}
	if first.Bytes == 0 || first.HandleMS <= 0 {
		t.Fatalf("profile line missing body size or handle time: %+v", first)
	}

	var bad accessEntry
	if err := json.Unmarshal([]byte(lines[2]), &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Status != 400 || bad.Class != "bad_input" {
		t.Fatalf("bad-input line wrong: %+v", bad)
	}

	var down shutdownEntry
	if err := json.Unmarshal([]byte(lines[3]), &down); err != nil {
		t.Fatalf("final line is not the shutdown entry: %v\n%s", err, lines[3])
	}
	if down.Event != "shutdown" || down.Requests != 3 || down.Dropped != 0 {
		t.Fatalf("shutdown line wrong: %+v", down)
	}
}

// accessLines indexes a drained access log's request lines by id, each
// as its raw JSON object, so a test can tell an absent field from a
// zero one.
func accessLines(t testing.TB, buf *syncBuffer) map[string]map[string]any {
	t.Helper()
	lines := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access-log line %q is not JSON: %v", line, err)
		}
		if id, ok := m["id"].(string); ok {
			lines[id] = m
		}
	}
	return lines
}

// TestAccessLogStageLedger: a real-pipeline miss logs its stage
// ledger — read, hash, enqueue, decode, form, sample, flush and encode
// are disjoint parts of the request, so they sum to at most handle_ms,
// and they leave at most 10% of it unaccounted; dominant names the
// largest. A cache hit of the same upload ran no pipeline, so its line
// carries no pipeline stage.
func TestAccessLogStageLedger(t *testing.T) {
	buf := &syncBuffer{}
	srv, ts := newTestServer(t, Config{AccessLog: buf})
	data := encodedTrace(t, 600, 12)
	for _, id := range []string{"miss", "hit"} {
		resp, body := postTraceWithID(t, ts.URL+"/v1/profile?n=20&seed=3", data, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", id, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Simprof-Cache"); got != id {
			t.Fatalf("X-Simprof-Cache = %q, want %q", got, id)
		}
	}
	srv.Close() // drains the access log
	lines := accessLines(t, buf)

	stages := []string{"read", "hash", "enqueue", "decode", "form", "sample", "flush", "encode"}
	miss := lines["miss"]
	var sum, largest float64
	var dominant string
	for _, stage := range stages {
		ms, ok := miss[stage+"_ms"].(float64)
		if !ok {
			t.Fatalf("miss line has no %s_ms: %v", stage, miss)
		}
		sum += ms
		if ms > largest {
			largest, dominant = ms, stage
		}
	}
	handle := miss["handle_ms"].(float64)
	if sum > handle || sum < 0.9*handle {
		t.Fatalf("stages sum to %.3fms, want within [0.9, 1] × handle_ms %.3fms: %v", sum, handle, miss)
	}
	if miss["dominant"] != dominant {
		t.Fatalf("dominant = %v, want %s (%.3fms): %v", miss["dominant"], dominant, largest, miss)
	}

	hit := lines["hit"]
	for _, stage := range []string{"decode_ms", "form_ms", "sample_ms"} {
		if _, ok := hit[stage]; ok {
			t.Fatalf("hit line carries pipeline stage %s: %v", stage, hit)
		}
	}
	for _, stage := range []string{"read_ms", "hash_ms", "encode_ms", "dominant"} {
		if _, ok := hit[stage]; !ok {
			t.Fatalf("hit line lacks %s: %v", stage, hit)
		}
	}
}

// TestAccessLogOnOffDeterminism: the profile response is byte-identical
// whether the access log is off or on — the ledger observes, never
// alters. Only elapsed_ms, the request's own wall time, may differ.
func TestAccessLogOnOffDeterminism(t *testing.T) {
	data := encodedTrace(t, 150, 9)
	run := func(log io.Writer) string {
		_, ts := newTestServer(t, Config{AccessLog: log})
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=25&seed=11", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("access log %v: status %d body %s", log != nil, resp.StatusCode, body)
		}
		return stripVolatile(t, body)
	}
	if off, on := run(nil), run(&syncBuffer{}); off != on {
		t.Fatalf("response differs with the access log on:\non:  %s\noff: %s", on, off)
	}
}

// getSLO fetches and decodes /v1/slo, returning the tracked
// /v1/profile route entry.
func getSLO(t testing.TB, base string) RouteSLO {
	t.Helper()
	_, body := getBody(t, base+"/v1/slo")
	var st SLOStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/v1/slo body: %v\n%s", err, body)
	}
	for _, r := range st.Routes {
		if r.Route == "/v1/profile" {
			return r
		}
	}
	t.Fatalf("/v1/profile missing from SLO status: %+v", st)
	return RouteSLO{}
}

// TestChaosSLOBurnUnderFailure: a failing pipeline floods 5xx, the
// fast and slow burn rates spike past the alert threshold together,
// and recovery brings the fast burn back down as good traffic dilutes
// the window.
func TestChaosSLOBurnUnderFailure(t *testing.T) {
	leakCheck(t)
	withObs(t)
	srv, ts := newTestServer(t, Config{})
	var failing atomic.Bool
	failing.Store(true)
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		if failing.Load() {
			return nil, errors.New("chaos: pipeline down")
		}
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 6)

	for i := 0; i < 6; i++ {
		if resp, _ := postTrace(t, ts.URL+"/v1/profile", data); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d", i, resp.StatusCode)
		}
	}

	r := getSLO(t, ts.URL)
	if r.FastBad < 6 || r.FastTotal < 6 {
		t.Fatalf("fast window did not record the failures: %+v", r)
	}
	// 100% errors against a 99.9%% objective: burn = 1/0.001 = 1000.
	if r.FastBurn <= 14.4 || r.SlowBurn <= 14.4 {
		t.Fatalf("burn rates did not spike: fast %.1f slow %.1f", r.FastBurn, r.SlowBurn)
	}
	if !r.Alert {
		t.Fatalf("both windows over threshold but no alert: %+v", r)
	}

	failing.Store(false)
	for i := 0; i < 6; i++ {
		if resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", data); resp.StatusCode != http.StatusOK {
			t.Fatalf("recovery %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	healed := getSLO(t, ts.URL)
	if healed.FastBurn >= r.FastBurn {
		t.Fatalf("good traffic did not dilute the burn: %.1f -> %.1f", r.FastBurn, healed.FastBurn)
	}
}

// TestChaosSLOBurnUnderOverload: admission refusals (429) spend error
// budget too — backpressure is server-caused from the caller's view.
func TestChaosSLOBurnUnderOverload(t *testing.T) {
	leakCheck(t)
	withObs(t)
	srv, ts := newTestServer(t, Config{Concurrency: 1, Queue: -1})
	entered := make(chan struct{})
	gate := make(chan struct{})
	srv.profileFn = func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
		entered <- struct{}{}
		<-gate
		return srv.profile(ctx, data, n, seed)
	}
	data := encodedTrace(t, 100, 8)

	first := make(chan int, 1)
	go func() {
		resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10", data)
		first <- resp.StatusCode
	}()
	<-entered

	// Distinct options (seed) so this is new work rather than a
	// coalesce onto the in-flight identical request.
	if resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10&seed=2", data); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	r := getSLO(t, ts.URL)
	if r.FastBad < 1 || r.FastBurn <= 0 {
		t.Fatalf("overload refusal did not move the burn rate: %+v", r)
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", code)
	}
}

// TestSLOWindowDecay: after load stops, the windowed view decays to
// silence — first the fast window, then the slow one — while the
// cumulative histogram keeps its counts. This is the property that
// makes /v1/slo a live signal and /v1/metrics an audit trail.
func TestSLOWindowDecay(t *testing.T) {
	withObs(t)
	srv, ts := newTestServer(t, Config{})
	clk := &steppedClock{t: time.Unix(1700000000, 0)}
	srv.slo = newSLOTracker(nil, clk.now) // swap in before any traffic
	data := encodedTrace(t, 100, 12)

	cumBefore := histCount(t, ts.URL)
	for i := 0; i < 3; i++ {
		if resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10", data); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d failed", i)
		}
	}

	live := getSLO(t, ts.URL)
	if live.WindowSamples != 3 || live.FastTotal != 3 {
		t.Fatalf("live window should hold 3 samples: %+v", live)
	}
	if live.WindowP99MS <= 0 {
		t.Fatalf("live window p99 should be positive: %+v", live)
	}

	// Ten minutes of silence: past the 5m fast window, inside the 1h
	// ring. The fast view decays purely from the read-side rotation —
	// no further traffic required.
	clk.advance(10 * time.Minute)
	faded := getSLO(t, ts.URL)
	if faded.WindowSamples != 0 || faded.WindowP99MS != 0 || faded.FastTotal != 0 {
		t.Fatalf("fast window did not decay after 10min: %+v", faded)
	}
	if faded.SlowTotal != 3 {
		t.Fatalf("slow window should still hold the samples: %+v", faded)
	}

	clk.advance(2 * time.Hour)
	gone := getSLO(t, ts.URL)
	if gone.SlowTotal != 0 {
		t.Fatalf("slow window did not decay after 2h: %+v", gone)
	}

	// The cumulative histogram never forgets.
	if got := histCount(t, ts.URL); got != cumBefore+3 {
		t.Fatalf("cumulative request histogram = %d, want %d", got, cumBefore+3)
	}
}

// histCount reads the cumulative per-route latency histogram's
// observation count from the JSON snapshot.
func histCount(t testing.TB, base string) int64 {
	t.Helper()
	_, ms := getMetrics(t, base)
	m := findMetric(ms, "server.request_seconds", "route=/v1/profile")
	if m == nil {
		return 0
	}
	return int64(m.Value)
}

// TestObsGoroutineLifecycle: the runtime collector and access-log
// writer are real goroutines; Close stops both (leakCheck verifies)
// and runtime gauges show the collector actually sampled.
func TestObsGoroutineLifecycle(t *testing.T) {
	leakCheck(t)
	withObs(t)
	buf := &syncBuffer{}
	srv, ts := newTestServer(t, Config{RuntimeInterval: time.Millisecond, AccessLog: buf})

	if resp, _ := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 13)); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	waitFor(t, func() bool {
		_, ms := getMetrics(t, ts.URL)
		m := findMetric(ms, "runtime.goroutines", "")
		return m != nil && m.Value > 0
	})

	srv.Close()
	srv.Close() // idempotent
	if !strings.Contains(buf.String(), `"event":"shutdown"`) {
		t.Fatalf("drain did not flush the shutdown line:\n%s", buf.String())
	}
}

// gatedWriter blocks every Write until the gate channel is closed,
// pinning the access-log writer goroutine so the test can fill the
// queue deterministically.
type gatedWriter struct{ gate chan struct{} }

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	return len(p), nil
}

// TestMetricsExposesInternalTallies: the access-log drop counter and
// the labeled-metric cardinality-overflow count are tracked internally;
// both must surface on the Prometheus exposition (and the JSON
// snapshot) once nonzero.
func TestMetricsExposesInternalTallies(t *testing.T) {
	withObs(t)
	gw := &gatedWriter{gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{AccessLog: gw})
	// Registered after newTestServer so it runs first (LIFO): the gate
	// must open before the server's Close drains the queue.
	t.Cleanup(func() { close(gw.gate) })

	// The writer goroutine blocks on the first entry; the queue holds
	// the next 1024; everything past that is dropped and counted.
	for i := 0; i < 1100; i++ {
		srv.accessLog.Log(accessEntry{ID: fmt.Sprintf("fill-%d", i)})
	}
	if srv.accessLog.Dropped() == 0 {
		t.Fatal("expected dropped access-log lines after overfilling the queue")
	}

	// Blow past a vec's cardinality bound: observations beyond
	// maxCardinality distinct tuples collapse into ~overflow and count.
	probe := obs.NewCounterVec("test.overflow_probe", "cardinality probe", "k")
	for i := 0; i < 300; i++ {
		probe.With(fmt.Sprintf("v%03d", i)).Inc()
	}
	if obs.CardinalityOverflows() == 0 {
		t.Fatal("expected cardinality overflows after 300 distinct tuples")
	}

	_, promBody := getBody(t, ts.URL+"/metrics")
	text := string(promBody)
	for _, want := range []string{
		"# TYPE server_accesslog_dropped counter",
		"server_accesslog_dropped ",
		"# TYPE obs_cardinality_overflow counter",
		"obs_cardinality_overflow ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, "server_accesslog_dropped %g", &v); n == 1 && v < 1 {
			t.Fatalf("server_accesslog_dropped = %g, want >= 1", v)
		}
		if n, _ := fmt.Sscanf(line, "obs_cardinality_overflow %g", &v); n == 1 && v < 1 {
			t.Fatalf("obs_cardinality_overflow = %g, want >= 1", v)
		}
	}

	// The JSON snapshot carries the same counters.
	_, ms := getMetrics(t, ts.URL)
	if m := findMetric(ms, "server.accesslog_dropped", ""); m == nil || m.Value < 1 {
		t.Fatalf("server.accesslog_dropped missing from JSON snapshot: %+v", m)
	}
	if m := findMetric(ms, "obs.cardinality_overflow", ""); m == nil || m.Value < 1 {
		t.Fatalf("obs.cardinality_overflow missing from JSON snapshot: %+v", m)
	}
}
