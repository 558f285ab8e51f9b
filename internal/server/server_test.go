package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"simprof/internal/resilience"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// encodedTrace generates a synthetic trace and encodes it as gob.
func encodedTrace(t testing.TB, units int, seed uint64) []byte {
	t.Helper()
	tr, err := synth.DefaultTrace(units, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf, "gob"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a server over a temp history store and an
// httptest listener.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.HistoryPath == "" {
		cfg.HistoryPath = filepath.Join(t.TempDir(), "history.jsonl")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close) // idempotent; stops the access logger and runtime collector
	return srv, ts
}

func postTrace(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// decodeError unpacks the JSON error envelope.
func decodeError(t testing.TB, body []byte) errorBody {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", body, err)
	}
	return e
}

// TestProfileHappyPath: upload → 200 with estimate and a persisted,
// queryable history record.
func TestProfileHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := encodedTrace(t, 200, 7)

	resp, body := postTrace(t, ts.URL+"/v1/profile?n=30&seed=5", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Units != 200 || pr.K < 1 || pr.EstCPI <= 0 || pr.N != 30 || pr.Seq != 1 {
		t.Fatalf("response %+v", pr)
	}

	// The record is listed and retrievable in full.
	resp2, err := http.Get(ts.URL + "/v1/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rows []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("history rows = %d, want 1", len(rows))
	}
	resp3, err := http.Get(fmt.Sprintf("%s/v1/history/%d", ts.URL, pr.Seq))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("history/%d status %d", pr.Seq, resp3.StatusCode)
	}
	var rec struct {
		Manifest struct {
			Sampling struct {
				EstCPI float64 `json:"est_cpi"`
			} `json:"sampling"`
		} `json:"manifest"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.Sampling.EstCPI != pr.EstCPI {
		t.Fatalf("persisted estimate %v != response %v", rec.Manifest.Sampling.EstCPI, pr.EstCPI)
	}
}

// TestProfileDeterministicAcrossRequests: same upload, same params →
// identical estimate (the service adds no nondeterminism).
func TestProfileDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := encodedTrace(t, 150, 3)
	var estimates []float64
	for i := 0; i < 2; i++ {
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=25&seed=9", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var pr ProfileResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		estimates = append(estimates, pr.EstCPI)
	}
	if estimates[0] != estimates[1] {
		t.Fatalf("same request produced %v then %v", estimates[0], estimates[1])
	}
}

// TestProfileBadInput: garbage bytes → 400 with class bad_input, and
// the breaker stays closed no matter how many arrive.
func TestProfileBadInput(t *testing.T) {
	srv, ts := newTestServer(t, Config{Breaker: breakerCfg(2)})
	for i := 0; i < 6; i++ {
		resp, body := postTrace(t, ts.URL+"/v1/profile", []byte("definitely not a trace"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Class != "bad_input" {
			t.Fatalf("class %q, want bad_input", e.Class)
		}
	}
	// Malformed uploads never open the circuit.
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good upload after garbage flood: status %d, body %s", resp.StatusCode, body)
	}
	_ = srv
}

// TestProfileBadParams: malformed query knobs → 400.
func TestProfileBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"?n=0", "?n=x", "?seed=-1"} {
		resp, body := postTrace(t, ts.URL+"/v1/profile"+q, []byte("x"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", q, resp.StatusCode, body)
		}
	}
}

// TestProfileEmptyBody: an empty upload is a 400, not a decode panic.
func TestProfileEmptyBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postTrace(t, ts.URL+"/v1/profile", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
}

// TestHealthAndMetrics: liveness always OK; metrics endpoint serves
// the obs snapshot shape.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/v1/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestDrainRefusesNewWork: after BeginDrain, profile requests get 503
// unavailable with Retry-After, readyz flips to 503, and Drain returns
// once in-flight work (none here) is gone.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.BeginDrain()

	resp, body := postTrace(t, ts.URL+"/v1/profile", encodedTrace(t, 100, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Class != "unavailable" {
		t.Fatalf("class %q, want unavailable", e.Class)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	r2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", r2.StatusCode)
	}

	ctx, cancel := ctxTimeout(t)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain with nothing in flight: %v", err)
	}
}

// TestHistoryDisabled: HistoryPath "" serves profiles without
// persistence; Seq stays 0 and the history list is empty.
func TestHistoryDisabled(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", encodedTrace(t, 100, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Seq != 0 {
		t.Fatalf("Seq = %d with persistence off", pr.Seq)
	}
}

// TestNewRejectsNegativeBatchKnobs: there is one request path, so no
// negative BatchSize or CacheEntries sentinel selects another; New
// refuses them instead of serving with a surprising configuration.
func TestNewRejectsNegativeBatchKnobs(t *testing.T) {
	for _, cfg := range []Config{{BatchSize: -1}, {CacheEntries: -1}} {
		srv, err := New(cfg)
		if err == nil {
			srv.Close()
			t.Fatalf("New(%+v) accepted a negative knob", cfg)
		}
		if !strings.Contains(err.Error(), "must be at least 1") {
			t.Fatalf("New(%+v) error %q does not name the bound", cfg, err)
		}
	}
}

// breakerCfg builds a fast-tripping breaker for tests.
func breakerCfg(threshold int) resilience.BreakerConfig {
	return resilience.BreakerConfig{Threshold: threshold, Cooldown: 50 * time.Millisecond}
}

// ctxTimeout returns a context bounded by a generous test deadline.
func ctxTimeout(t testing.TB) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 10*time.Second)
}

// sanity: keep the formats the CLI writes decodable by the server.
func TestServerAcceptsJSONTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr, err := synth.DefaultTrace(100, 4).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	resp, body := postTrace(t, ts.URL+"/v1/profile?n=10", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json trace: status %d, body %s", resp.StatusCode, body)
	}
	_ = trace.FormatNames()
}

// TestServerAcceptsBinTrace: an SPTB (tracebin) upload profiles exactly
// like the gob upload of the same trace. Only the per-record fields
// (seq, key) and elapsed_ms may differ. The SPTB bytes are the tracebin
// golden fixture (tracebin.Marshal of the spec below, pinned byte for
// byte by its TestGoldenEncode) rather than a Marshal call, so this test
// binary does not import tracebin: the upload decodes only if the
// server package itself registers the format.
func TestServerAcceptsBinTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bin, err := os.ReadFile("../tracebin/testdata/golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := synth.TraceSpec{
		Benchmark: "golden", Framework: "spark", Input: "fixture",
		Units: 20, Methods: 24, Phases: 3, Depth: 4, Snapshots: 3,
		UnitInstr: 1_000_000, Seed: 42,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var gob bytes.Buffer
	if err := tr.Encode(&gob, "gob"); err != nil {
		t.Fatal(err)
	}
	bodies := make([]map[string]any, 2)
	for i, data := range [][]byte{gob.Bytes(), bin} {
		resp, body := postTrace(t, ts.URL+"/v1/profile?n=6&seed=3", data)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &bodies[i]); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"seq", "key", "elapsed_ms"} {
			delete(bodies[i], k)
		}
	}
	if !reflect.DeepEqual(bodies[0], bodies[1]) {
		t.Fatalf("gob and bin uploads profile differently:\ngob: %v\nbin: %v", bodies[0], bodies[1])
	}
}
