// Package server implements simprofd, SimProf's resilience-first
// profiling service: trace upload → phase formation → stratified
// sampling → crash-safe history append, behind HTTP.
//
// A profile upload goes cache → flight → admission (internal/batch): a
// repeat of completed work is answered from the content-hash result
// cache, an identical in-flight upload joins that flight, and only a
// new distinct upload claims admission and runs the pipeline on its
// own goroutine.
//
// Every failure mode maps to the typed error taxonomy of
// internal/resilience, and every refusal is explicit:
//
//   - per-request deadlines propagate as context cancellation through
//     the whole pipeline (decode, formation kernels, sampling), so an
//     abandoned request stops burning CPU;
//   - admission is a bounded queue — beyond it clients get 429 plus
//     Retry-After, not unbounded latency;
//   - a failed history append fails the request (500 internal) and is
//     never retried: a retried fsync can report success for data the
//     kernel already dropped;
//   - SIGTERM drains: new work is refused with 503 while in-flight
//     requests finish inside the drain budget.
//
// The pipeline stays bit-for-bit deterministic: the service adds
// dedup and refusals around it, never alternative results.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"simprof/internal/batch"
	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/phase"
	"simprof/internal/resilience"
	"simprof/internal/sampling"
	"simprof/internal/stats"
	"simprof/internal/trace"
	_ "simprof/internal/tracebin" // registers the "bin" (SPTB) upload format
)

var (
	obsRequests = obs.NewCounter("server.requests",
		"HTTP requests received")
	obsProfilesOK = obs.NewCounter("server.profiles_ok",
		"profile requests completed and persisted")
	obsProfilesErr = obs.NewCounter("server.profiles_err",
		"profile requests that ended in any typed error")
	obsBodyBytes = obs.NewCounter("server.body_bytes",
		"trace upload bytes read")

	obsRequestsByRoute = obs.NewCounterVec("server.requests_by_route",
		"HTTP requests by normalized route and status", "route", "status")
	obsRequestsByTenant = obs.NewCounterVec("server.requests_by_tenant",
		"HTTP requests by tenant header", "tenant")
	obsErrorsByClass = obs.NewCounterVec("server.errors_by_class",
		"typed errors by resilience class and route", "class", "route")
	obsRequestSeconds = obs.NewHistogramVec("server.request_seconds",
		"request latency by route (cumulative since boot)",
		[]string{"route"},
		0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10)
)

// Config tunes a Server. The zero value selects the noted defaults.
type Config struct {
	// HistoryPath is the crash-safe JSONL store appended per profile.
	// Empty disables persistence (profiles still run; Seq is 0).
	HistoryPath string
	// Workers bounds the profile pipeline's kernel concurrency per
	// request (0 = GOMAXPROCS).
	Workers int
	// Concurrency is how many profile requests execute at once
	// (default 2); Queue how many more may wait (0 defaults to 8,
	// negative means no queue at all). Beyond that: 429.
	Concurrency int
	Queue       int
	// Timeout is the per-request deadline (default 30s). The handler
	// context carries it; pipeline work stops when it fires.
	Timeout time.Duration
	// MaxBodyBytes caps trace uploads (default 64 MiB).
	MaxBodyBytes int64
	// AccessLog receives one structured JSON line per finished request
	// (nil disables access logging). Writes happen on a dedicated
	// goroutine; a slow sink drops lines instead of adding tail latency.
	AccessLog io.Writer
	// SLO is the objective set tracked live and served at /v1/slo.
	// nil selects DefaultSLOConfig.
	SLO *SLOConfig
	// RuntimeInterval is the period of the runtime-metrics collector
	// (goroutines, heap, GC pauses). 0 disables the collector.
	RuntimeInterval time.Duration
	// RequestIDSeed seeds generated request IDs for requests that carry
	// no X-Request-Id header; IDs are deterministic per (seed, arrival
	// index).
	RequestIDSeed uint64
	// CacheEntries and CacheBytes bound the content-hash result cache
	// (0 selects 512 entries / 64 MiB). New rejects a negative
	// CacheEntries.
	CacheEntries int
	CacheBytes   int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.Queue == 0 {
		c.Queue = 8
	} else if c.Queue < 0 {
		c.Queue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// profileOutcome is what the profile pipeline hands back for one
// upload, with the time each of its stages took.
type profileOutcome struct {
	Trace *trace.Trace
	Ph    *phase.Phases
	Sp    sampling.Stratified
	times pipelineTimes
}

// pipelineTimes is the pipeline's part of a request's stage ledger:
// trace decode, phase formation and stratified sampling.
type pipelineTimes struct {
	decode, form, sample time.Duration
}

// profileKey identifies one profile computation for dedup: the strong
// hash of the exact upload bytes plus the canonicalized sampling
// options. Workers is deliberately not part of the key — the pipeline
// is bit-identical across worker counts, so dedup across that knob is
// free. Two uploads with the same bytes but different n or seed get
// different keys and never share a result.
type profileKey struct {
	sum  [32]byte // sha256 of the raw trace upload
	opts string   // canonical "n=<n>,seed=<seed>"
}

// profilePayload carries one upload into its flight.
type profilePayload struct {
	data []byte
	n    int
	seed uint64
}

// profileResult is the cacheable outcome of one executed profile:
// the response body (ElapsedMS zeroed; each request stamps its own),
// with Seq/Key referencing the history record the executing flight
// persisted — cache hits point at the original record instead of
// appending duplicates. The stage times belong to the flight that
// computed it; only that flight's request logs them.
type profileResult struct {
	resp  ProfileResponse
	times pipelineTimes
	flush time.Duration // history persist time
	size  int64         // resident-byte estimate for the cache budget
}

// Server is the simprofd HTTP service. Construct with New; serve
// Handler(); stop with BeginDrain + Drain.
type Server struct {
	cfg   Config
	store *history.Store
	adm   *resilience.Admission
	drain *resilience.Drain
	mux   *http.ServeMux

	// group is the request path: content-hash cache, then coalescing
	// of identical in-flight uploads, then admission.
	group *batch.Group[profileKey, profilePayload, profileResult]

	slo         *sloTracker
	accessLog   *accessLogger
	stopRuntime func()
	reqSeq      atomic.Uint64 // arrival index for generated request IDs

	// Test seams: the chaos harness swaps these to inject pipeline and
	// store faults without touching the HTTP machinery. nil selects the
	// real implementations.
	profileFn func(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error)
	appendFn  func(r *history.Record) (*history.Record, error)
}

// New builds a Server, recovering the history store's torn tail (if
// any) before accepting writes.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	if c.CacheEntries < 0 {
		return nil, fmt.Errorf("server: CacheEntries must be at least 1 (0 selects the default), got %d", c.CacheEntries)
	}
	if c.SLO != nil {
		if err := c.SLO.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:   c,
		adm:   resilience.NewAdmission(c.Concurrency, c.Queue),
		drain: resilience.NewDrain(),
		slo:   newSLOTracker(c.SLO, nil),
	}
	if c.HistoryPath != "" {
		s.store = history.OpenDurable(c.HistoryPath)
		if _, err := s.store.RecoverTail(); err != nil {
			return nil, fmt.Errorf("server: history recovery: %w", err)
		}
	}
	s.group = batch.NewGroup(batch.Config[profileKey, profilePayload, profileResult]{
		Exec:  s.execProfile,
		Size:  func(v profileResult) int64 { return v.size },
		Cache: batch.NewCache[profileKey, profileResult](c.CacheEntries, c.CacheBytes),
		Admit: func() (batch.Ticket, error) {
			t, err := s.adm.Enqueue()
			if err != nil {
				return nil, err
			}
			return t, nil
		},
	})
	// Background goroutines start only after every fallible step, so a
	// failed New never leaks them.
	s.accessLog = newAccessLogger(c.AccessLog)
	s.stopRuntime = obs.StartRuntimeCollector(c.RuntimeInterval)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.HandleFunc("GET /v1/history/{seq}", s.handleHistoryOne)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /v1/slo", s.handleSLO)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s, nil
}

// Close stops the server's background goroutines: the runtime-metrics
// collector and the access logger (which drains its queue and writes a
// final shutdown line). Call after Drain. Safe to call more than once.
func (s *Server) Close() {
	if s.stopRuntime != nil {
		s.stopRuntime()
	}
	s.accessLog.Close()
}

// reqStats carries one request's identity and stage ledger through
// the context: handlers fill in the pieces (class on error, body bytes,
// stage times) and the Handler middleware emits them as labeled
// metrics, SLO window samples and one access-log line.
type reqStats struct {
	id     string
	tenant string
	route  string
	class  resilience.Class
	bytes  int64

	read    time.Duration // upload body read
	hash    time.Duration // content hash of the upload (the dedup key)
	enqueue time.Duration // admission-queue wait (until an execution slot)
	pipe    pipelineTimes // the flight's decode, form and sample
	flush   time.Duration // history persist
	encode  time.Duration // response JSON encode and write
}

type ctxKey int

const reqStatsKey ctxKey = iota

// statsFrom returns the request's stats sink (nil when the middleware
// did not run, e.g. a handler invoked directly in a test).
func statsFrom(ctx context.Context) *reqStats {
	st, _ := ctx.Value(reqStatsKey).(*reqStats)
	return st
}

// routeOf normalizes a request path to a bounded route label, so path
// parameters (history seq) and unknown paths cannot explode metric
// cardinality.
func routeOf(path string) string {
	switch {
	case path == "/v1/profile":
		return "/v1/profile"
	case path == "/v1/history":
		return "/v1/history"
	case strings.HasPrefix(path, "/v1/history/"):
		return "/v1/history/{seq}"
	case path == "/v1/metrics":
		return "/v1/metrics"
	case path == "/v1/slo":
		return "/v1/slo"
	case path == "/metrics":
		return "/metrics"
	case path == "/healthz":
		return "/healthz"
	case path == "/readyz":
		return "/readyz"
	}
	return "other"
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the connection beneath.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// requestID returns the caller-provided X-Request-Id, or generates a
// deterministic one from the configured seed and the arrival index.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return fmt.Sprintf("%016x", stats.SplitSeed(s.cfg.RequestIDSeed, s.reqSeq.Add(1)))
}

// Handler returns the service's HTTP handler: the observability
// middleware (request ID, labeled metrics, SLO windows, access log)
// wrapping the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		obsRequests.Inc()
		tenant := r.Header.Get("X-Simprof-Tenant")
		if tenant == "" {
			tenant = "default"
		}
		st := &reqStats{
			id:     s.requestID(r),
			tenant: tenant,
			route:  routeOf(r.URL.Path),
		}
		w.Header().Set("X-Request-Id", st.id)
		sr := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(sr, r.WithContext(context.WithValue(r.Context(), reqStatsKey, st)))
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		elapsed := time.Since(start)

		obsRequestsByRoute.With(st.route, strconv.Itoa(sr.status)).Inc()
		obsRequestsByTenant.With(st.tenant).Inc()
		obsRequestSeconds.With(st.route).Observe(elapsed.Seconds())
		s.slo.observe(st.route, st.class, elapsed)
		s.accessLog.Log(st.entry(sr.status, elapsed))
	})
}

// durMS renders a duration in float milliseconds.
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// BeginDrain flips the server to draining: profile requests are
// refused with 503 while in-flight ones keep running. Idempotent.
func (s *Server) BeginDrain() { s.drain.Begin() }

// Drain blocks until in-flight profile work finishes or ctx (the drain
// budget) expires.
func (s *Server) Drain(ctx context.Context) error { return s.drain.Wait(ctx) }

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// writeError maps err through the resilience taxonomy onto status,
// Retry-After and the JSON envelope, and records the class on the
// request's stats (feeding the class-labeled error counter, the SLO
// windows and the access log).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	class := resilience.Classify(err)
	route := routeOf(r.URL.Path)
	if st := statsFrom(r.Context()); st != nil {
		st.class = class
	}
	obsErrorsByClass.With(class.String(), route).Inc()
	if ra := retryAfter(err); ra > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds()+1)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(class.HTTPStatus())
	json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Class: class.String()})
}

// retryAfter picks the Retry-After hint for a refusal: one second for
// queue overload and draining (retry against a peer or after the
// drain), none otherwise.
func retryAfter(err error) time.Duration {
	if errors.Is(err, resilience.ErrOverload) || errors.Is(err, resilience.ErrDraining) {
		return time.Second
	}
	return 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ProfileResponse is the profile endpoint's success body.
type ProfileResponse struct {
	Seq        int     `json:"seq,omitempty"` // history record, 0 when persistence is off
	Key        string  `json:"key,omitempty"`
	Units      int     `json:"units"`
	K          int     `json:"k"`
	Silhouette float64 `json:"silhouette"`
	N          int     `json:"n"`
	EstCPI     float64 `json:"est_cpi"`
	SE         float64 `json:"se"`
	CILo       float64 `json:"ci_lo"`
	CIHi       float64 `json:"ci_hi"`
	Alloc      []int   `json:"alloc"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// handleProfile is the hot path: content-hash cache → coalescing
// flight → admission-gated execution. It parses, reads and hashes the
// upload, then hands the key to the batch group, which answers from
// the result cache, joins an identical in-flight request, or starts a
// new flight (refusing with 429 on arrival when the admission queue is
// full).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	exit, err := s.drain.Enter()
	if err != nil {
		obsProfilesErr.Inc()
		s.writeError(w, r, err)
		return
	}
	defer exit()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	st := statsFrom(ctx)
	if st == nil { // called without the middleware: record nowhere
		st = &reqStats{}
	}

	n, seed, err := sampleParams(r)
	if err != nil {
		obsProfilesErr.Inc()
		s.writeError(w, r, err)
		return
	}
	t := time.Now()
	data, err := readBody(ctx, w, r, s.cfg.MaxBodyBytes)
	st.read = time.Since(t)
	if err != nil {
		obsProfilesErr.Inc()
		s.writeError(w, r, err)
		return
	}
	obsBodyBytes.Add(int64(len(data)))
	st.bytes = int64(len(data))

	t = time.Now()
	key := profileKey{sum: sha256.Sum256(data), opts: fmt.Sprintf("n=%d,seed=%d", n, seed)}
	st.hash = time.Since(t)
	v, res, err := s.group.Do(ctx, key, profilePayload{data: data, n: n, seed: seed})
	w.Header().Set("X-Simprof-Cache", res.Source.String())
	st.enqueue = res.EnqueueWait
	// Only the request whose flight ran the pipeline logs its stages;
	// hits and coalesced requests did not pay for them.
	if res.Source == batch.Miss {
		st.pipe, st.flush = v.times, v.flush
	}
	if err != nil {
		obsProfilesErr.Inc()
		s.writeError(w, r, err)
		return
	}
	resp := v.resp
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	obsProfilesOK.Inc()
	t = time.Now()
	writeJSON(w, http.StatusOK, resp)
	st.encode = time.Since(t)
}

// execProfile runs one deduplicated flight on the flight's goroutine:
// pipeline → fsynced history append. ctx is the flight context (alive
// until the last waiting request leaves).
func (s *Server) execProfile(ctx context.Context, key profileKey, p profilePayload) (profileResult, error) {
	out, err := s.runProfile(ctx, p.data, p.n, p.seed)
	if err != nil {
		return profileResult{}, err
	}

	resp := ProfileResponse{
		Units:      len(out.Trace.Units),
		K:          out.Ph.K,
		Silhouette: out.Ph.Silhouette,
		N:          p.n,
		EstCPI:     out.Sp.EstCPI,
		SE:         out.Sp.SE,
		CILo:       out.Sp.CI(0.997).Lo(),
		CIHi:       out.Sp.CI(0.997).Hi(),
		Alloc:      out.Sp.Alloc,
	}
	flushStart := time.Now()
	rec, err := s.persist(ctx, out, p.n, p.seed)
	flush := time.Since(flushStart)
	if err != nil {
		return profileResult{}, err
	}
	if rec != nil {
		resp.Seq, resp.Key = rec.Seq, rec.Key
	}
	// Resident-size estimate for the cache's byte budget: fixed struct
	// fields plus the allocation slice and key string.
	size := int64(224 + 8*len(resp.Alloc) + len(resp.Key) + len(key.opts))
	return profileResult{resp: resp, times: out.times, flush: flush, size: size}, nil
}

// sampleParams parses the n/seed query knobs.
func sampleParams(r *http.Request) (n int, seed uint64, err error) {
	n, seed = 20, 1
	if v := r.URL.Query().Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, 0, resilience.BadInput(fmt.Errorf("query n=%q must be a positive integer", v))
		}
	}
	if v := r.URL.Query().Get("seed"); v != "" {
		seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, resilience.BadInput(fmt.Errorf("query seed=%q must be an unsigned integer", v))
		}
	}
	return n, seed, nil
}

// uploadPresize is the most capacity an upload buffer gets before its
// bytes arrive. A declared Content-Length is trusted up to here and no
// further, so a header alone never makes the server allocate
// MaxBodyBytes; 1 MiB holds every Table I upload (55–263 KB).
const uploadPresize = 1 << 20

// readBody reads the upload under the request deadline, which it sets
// as the connection's read deadline: a client that stalls past it
// fails the Read, and the request gets 504 instead of a hung handler.
// A body that ends before its declared length is the caller's bad
// input; any other failed Read after the client left is a
// cancellation. A declared Content-Length above maxBytes is refused
// before a byte is read, and the connection closes after the reply so
// the server does not drain the unread body first.
func readBody(ctx context.Context, w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	if r.ContentLength > maxBytes {
		w.Header().Set("Connection", "close")
		return nil, uploadTooLarge(maxBytes)
	}
	if d, ok := ctx.Deadline(); ok {
		// Writers that are not a server connection (tests' recorders)
		// cannot take a deadline; their bodies are in memory.
		_ = http.NewResponseController(w).SetReadDeadline(d)
	}
	data, err := readUpload(r.Body, r.ContentLength, maxBytes)
	switch {
	case err == nil && len(data) == 0:
		return nil, resilience.BadInput(errors.New("empty trace upload"))
	case err == nil, errors.Is(err, resilience.ErrBadInput):
		return data, err
	case errors.Is(err, os.ErrDeadlineExceeded):
		return nil, fmt.Errorf("reading trace upload: %w", context.DeadlineExceeded)
	case errors.Is(err, io.ErrUnexpectedEOF), ctx.Err() == nil:
		return nil, resilience.BadInput(fmt.Errorf("reading trace upload: %w", err))
	default:
		return nil, fmt.Errorf("reading trace upload: %w", ctx.Err())
	}
}

// readUpload reads body to EOF into one buffer. declared is the
// request's Content-Length, −1 when unknown (a chunked upload), and
// limit = min(declared, maxBytes) is the most the body may hold. The
// buffer starts at limit+1 bytes, so the Read that meets EOF still has
// room, but at most uploadPresize (bytes.MinRead when no length is
// declared); whenever it fills, its capacity doubles with the bytes
// that did arrive, never past limit+1. A body longer than limit is
// refused as soon as its extra byte is read.
func readUpload(body io.Reader, declared, maxBytes int64) ([]byte, error) {
	limit, start := maxBytes, int64(bytes.MinRead)
	if declared >= 0 {
		limit = min(declared, maxBytes)
		start = uploadPresize
	}
	buf := make([]byte, 0, min(start, limit+1))
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*int64(cap(buf)), limit+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			// net/http cuts a body off at its declared length, so only a
			// body past maxBytes gets here.
			return nil, uploadTooLarge(limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// uploadTooLarge is the refusal of an upload over its byte limit.
func uploadTooLarge(limit int64) error {
	return resilience.BadInput(fmt.Errorf("trace upload exceeds %d bytes", limit))
}

// runProfile executes the pipeline (or the injected test seam).
func (s *Server) runProfile(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
	if s.profileFn != nil {
		return s.profileFn(ctx, data, n, seed)
	}
	return s.profile(ctx, data, n, seed)
}

// profile is the real pipeline: decode → form phases → sample, all
// under ctx.
func (s *Server) profile(ctx context.Context, data []byte, n int, seed uint64) (*profileOutcome, error) {
	var times pipelineTimes
	t := time.Now()
	tr, err := trace.DecodeBytesCtx(ctx, data)
	if err != nil {
		return nil, pipelineError("decode", err)
	}
	times.decode = time.Since(t)
	t = time.Now()
	ph, err := phase.FormCtx(ctx, tr, phase.Options{Seed: seed, Workers: s.cfg.Workers})
	if err != nil {
		return nil, pipelineError("phase formation", err)
	}
	times.form = time.Since(t)
	t = time.Now()
	sp, err := sampling.SimProfCtx(ctx, ph, n, seed)
	if err != nil {
		return nil, pipelineError("sampling", err)
	}
	times.sample = time.Since(t)
	return &profileOutcome{Trace: tr, Ph: ph, Sp: sp, times: times}, nil
}

// pipelineError classifies a pipeline stage failure: context ends pass
// through (timeout/cancel), everything else means the uploaded trace
// cannot be profiled — the caller's fault, not the service's.
func pipelineError(stage string, err error) error {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fmt.Errorf("%s: %w", stage, err)
	}
	return resilience.BadInput(fmt.Errorf("%s: %w", stage, err))
}

// persist appends the profile outcome to the history store. Returns
// (nil, nil) when persistence is disabled. A failed append fails the
// request and is never retried (see the package doc); an already-ended
// flight context writes no record.
func (s *Server) persist(ctx context.Context, out *profileOutcome, n int, seed uint64) (*history.Record, error) {
	if s.store == nil && s.appendFn == nil {
		return nil, nil
	}
	m := obs.NewManifest("simprofd profile", nil)
	m.Workload = &obs.WorkloadInfo{
		Benchmark: out.Trace.Benchmark,
		Framework: out.Trace.Framework,
		Input:     out.Trace.Input,
		Seed:      seed,
		Workers:   s.cfg.Workers,
		Units:     len(out.Trace.Units),
		UnitInstr: out.Trace.UnitInstr,
	}
	m.Phases = &obs.PhaseInfo{
		K:                out.Ph.K,
		Silhouette:       out.Ph.Silhouette,
		DegradedFraction: out.Ph.DegradedFraction(),
	}
	ci := out.Sp.CI(0.997)
	m.Sampling = &obs.SamplingInfo{
		Method: out.Sp.Method, N: n, Confidence: 0.997,
		EstCPI: out.Sp.EstCPI, SE: out.Sp.SE,
		CILo: ci.Lo(), CIHi: ci.Hi(),
		SEInflation: out.Sp.SEInflation,
	}
	rec := history.FromManifest(m)
	rec.Note = fmt.Sprintf("profile %s_%s n=%d", out.Trace.Benchmark, out.Trace.Framework, n)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("history append: %w", err)
	}
	saved, err := s.append(rec)
	if err != nil {
		return nil, fmt.Errorf("history append: %w", err)
	}
	return saved, nil
}

// append runs one store append through the test seam, if set. The
// store handle serializes concurrent appends itself.
func (s *Server) append(rec *history.Record) (*history.Record, error) {
	if s.appendFn != nil {
		return s.appendFn(rec)
	}
	return s.store.Append(rec)
}

// handleHistory lists the store (seq, time, key, tool, note per line).
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusOK, []any{})
		return
	}
	recs, skipped, err := s.store.Records()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	type row struct {
		Seq  int    `json:"seq"`
		Time string `json:"time,omitempty"`
		Key  string `json:"key"`
		Tool string `json:"tool,omitempty"`
		Note string `json:"note,omitempty"`
	}
	rows := make([]row, 0, len(recs))
	for _, rec := range recs {
		rows = append(rows, row{rec.Seq, rec.Time, rec.Key, rec.Tool, rec.Note})
	}
	if skipped > 0 {
		w.Header().Set("X-Simprof-Skipped-Lines", strconv.Itoa(skipped))
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleHistoryOne returns one full record (manifest included).
func (s *Server) handleHistoryOne(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		s.writeError(w, r, resilience.BadInput(errors.New("history persistence is disabled")))
		return
	}
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		s.writeError(w, r, resilience.BadInput(fmt.Errorf("bad seq %q", r.PathValue("seq"))))
		return
	}
	rec, err := s.store.Get(seq)
	if err != nil {
		s.writeError(w, r, resilience.BadInput(err))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// syncScrapeCounters mirrors internally tracked tallies — the access
// logger's written/dropped line counts — onto their obs counters just
// before a snapshot, so the exposition always reflects the source of
// truth instead of a racing duplicate count.
func (s *Server) syncScrapeCounters() {
	obsAccessLogLines.Sync(s.accessLog.Written())
	obsAccessLogDropped.Sync(s.accessLog.Dropped())
}

// handleMetrics dumps the obs registry snapshot as JSON (the snapshot
// order is deterministic: name, kind, then sorted label pairs).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncScrapeCounters()
	writeJSON(w, http.StatusOK, obs.Default().Snapshot())
}

// handlePromMetrics serves the same snapshot in the Prometheus text
// exposition format for scrapers.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncScrapeCounters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, obs.Default().Snapshot())
}

// handleSLO serves the live burn-rate view of the configured
// objectives.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.status())
}

// handleHealthz: liveness — the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: readiness — refuses while draining, so load balancers
// steer traffic away before requests fail.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	active, waiting := s.adm.Depth()
	body := map[string]any{
		"active":  active,
		"waiting": waiting,
	}
	if s.drain.Draining() {
		body["status"] = "draining"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ok"
	writeJSON(w, http.StatusOK, body)
}
