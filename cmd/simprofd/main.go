// Command simprofd serves SimProf's profiling pipeline over HTTP with
// resilience built in: per-request deadlines, bounded-queue admission
// with backpressure, a circuit breaker around the pipeline, retried
// crash-safe history persistence, and graceful SIGTERM drain.
//
// Subcommands:
//
//	simprofd [serve] [flags]   run the service (the default)
//	simprofd status -addr ...  render a running instance's readiness
//	                           and SLO burn rates as a table
//	simprofd traces -addr ...  render the retained request traces and
//	                           the retention engine's status
//
// Endpoints:
//
//	POST /v1/profile?n=20&seed=1   upload a trace (any format simprof
//	                               reads), get phases + the stratified
//	                               CPI estimate; persisted to history
//	GET  /v1/history               list persisted runs
//	GET  /v1/history/{seq}         one full record (manifest included)
//	GET  /v1/metrics               obs metric snapshot (JSON)
//	GET  /metrics                  same snapshot, Prometheus text format
//	GET  /v1/slo                   live SLO burn rates per route
//	GET  /v1/traces                retained request traces + retention
//	                               status (with -trace)
//	GET  /v1/traces/{id}           one trace as a Chrome trace-event
//	                               file (load in about:tracing/Perfetto)
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 while draining or
//	                               breaker-open)
//
// Every response carries an X-Request-Id (caller-provided or
// generated); with -access-log the service writes one structured JSON
// line per request. Errors come back as {"error": ..., "class": ...}
// with the class mapped to the status code: 400 bad_input, 429
// overload (plus Retry-After), 503 unavailable, 504 timeout.
//
// Profile serving is deduplicated by default: responses carry
// X-Simprof-Cache saying how they were produced — miss (computed),
// hit (served from the content-hash result cache, tune with
// -cache-entries/-cache-bytes), or coalesced (shared a concurrent
// identical request's execution). Distinct requests batch into flush
// passes (-batch-size/-batch-wait).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"simprof/internal/obs"
	"simprof/internal/obs/reqtrace"
	"simprof/internal/server"
)

func main() {
	args := os.Args[1:]
	cmd := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "status":
		err = cmdStatus(args)
	case "traces":
		err = cmdTraces(args)
	case "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "simprofd: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, errHelp) {
		fmt.Fprintf(os.Stderr, "simprofd: %v\n", err)
	}
	os.Exit(exitCodeFor(err))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: simprofd [command] [flags]

commands:
  serve   run the profiling service (default when no command is given)
  status  render a running instance's readiness and SLO burn rates
  traces  render a running instance's retained request traces

run 'simprofd <command> -h' for the command's flags`)
}

// newFlagSet builds a subcommand FlagSet that reports parse errors
// through the uniform usageErr path instead of exiting or printing on
// its own.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseFlags parses args, turning flag errors into "usage: simprofd
// <cmd>: ..." errors and -h into a printed usage plus errHelp.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil {
		return nil
	}
	if err == flag.ErrHelp {
		fmt.Fprintf(os.Stderr, "usage: simprofd %s [flags]\n\nflags:\n", fs.Name())
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		return errHelp
	}
	return usageErr(fs, "%v", err)
}

// serveOpts is the validated serve configuration: cmdServe builds it
// from flags, serve runs it. accessLogClose is non-nil when -access-log
// opened a file the process must close on exit.
type serveOpts struct {
	addr        string
	drainBudget time.Duration
	cfg         server.Config

	accessLogClose func() error
}

// buildServeOpts parses and validates the serve flags without starting
// anything, so flag mistakes fail fast with exit code 2.
func buildServeOpts(args []string) (*serveOpts, error) {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "localhost:7041", "listen address")
	historyPath := fs.String("history", "simprofd-history.jsonl", "history store path ('' disables persistence)")
	workers := fs.Int("workers", 0, "pipeline worker bound per request (0 = GOMAXPROCS)")
	concurrency := fs.Int("concurrency", 2, "profile requests executing at once")
	queue := fs.Int("queue", 8, "profile requests allowed to wait beyond that")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := fs.Int64("max-body", 64<<20, "trace upload size limit in bytes (oversize uploads are refused as bad_input)")
	cacheEntries := fs.Int("cache-entries", 512, "content-hash result cache entry bound")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "content-hash result cache resident-byte bound")
	batchSize := fs.Int("batch-size", 8, "distinct profile requests per batch flush")
	batchWait := fs.Duration("batch-wait", 2*time.Millisecond, "max time a batched request waits for the flush under load")
	drainBudget := fs.Duration("drain", 20*time.Second, "graceful-shutdown budget for in-flight requests")
	sloConfig := fs.String("slo-config", "", "JSON SLO objectives file ('' selects the built-in defaults)")
	accessLog := fs.String("access-log", "", "access-log destination: '' disables, '-' is stdout, else a file appended to")
	runtimeInterval := fs.Duration("runtime-interval", 10*time.Second, "runtime-metrics sampling period (0 disables the collector)")
	requestIDSeed := fs.Uint64("request-id-seed", 0x51d0, "seed for generated request IDs")
	traceOn := fs.Bool("trace", false, "retain a stratified sample of request traces (tune with -trace-*)")
	traceBudget := fs.Int("trace-budget", 256, "retained-trace budget, forced keeps included")
	traceRing := fs.Int("trace-ring", 64, "most-recent completions kept regardless of retention")
	traceRebalance := fs.Int("trace-rebalance", 64, "completions between Neyman reallocations")
	traceSeed := fs.Uint64("trace-seed", 0x7a3e, "seed for the per-stratum retention reservoirs")
	traceBuckets := fs.String("trace-buckets", "", "latency stratum bounds in ms, comma-separated ascending ('' = 5,25,100,500)")
	traceStore := fs.String("trace-store", "", "durable JSONL store for admitted traces ('' keeps the sample in memory only)")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, usageErr(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *timeout <= 0 {
		return nil, usageErr(fs, "-timeout must be positive, got %v", *timeout)
	}
	if *drainBudget <= 0 {
		return nil, usageErr(fs, "-drain must be positive, got %v", *drainBudget)
	}
	if *concurrency < 1 {
		return nil, usageErr(fs, "-concurrency must be at least 1, got %d", *concurrency)
	}
	if *workers < 0 {
		return nil, usageErr(fs, "-workers must not be negative, got %d", *workers)
	}
	if *maxBody < 1 {
		return nil, usageErr(fs, "-max-body must be at least 1, got %d", *maxBody)
	}
	if *cacheEntries < 1 {
		return nil, usageErr(fs, "-cache-entries must be at least 1, got %d", *cacheEntries)
	}
	if *cacheBytes < 1 {
		return nil, usageErr(fs, "-cache-bytes must be at least 1, got %d", *cacheBytes)
	}
	if *batchSize < 1 {
		return nil, usageErr(fs, "-batch-size must be at least 1, got %d", *batchSize)
	}
	if *batchWait <= 0 {
		return nil, usageErr(fs, "-batch-wait must be positive, got %v", *batchWait)
	}
	if *runtimeInterval < 0 {
		return nil, usageErr(fs, "-runtime-interval must not be negative, got %v", *runtimeInterval)
	}
	if !*traceOn {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "trace-") {
				stray = f.Name
			}
		})
		if stray != "" {
			return nil, usageErr(fs, "-%s requires -trace", stray)
		}
	}
	var traceCfg *reqtrace.Config
	if *traceOn {
		if *traceBudget < 1 {
			return nil, usageErr(fs, "-trace-budget must be at least 1, got %d", *traceBudget)
		}
		if *traceRing < 1 {
			return nil, usageErr(fs, "-trace-ring must be at least 1, got %d", *traceRing)
		}
		if *traceRebalance < 1 {
			return nil, usageErr(fs, "-trace-rebalance must be at least 1, got %d", *traceRebalance)
		}
		bounds, err := parseBucketBounds(*traceBuckets)
		if err != nil {
			return nil, usageErr(fs, "-trace-buckets: %v", err)
		}
		traceCfg = &reqtrace.Config{
			Budget:         *traceBudget,
			Ring:           *traceRing,
			Rebalance:      *traceRebalance,
			Seed:           *traceSeed,
			BucketBoundsMS: bounds,
		}
	}

	o := &serveOpts{
		addr:        *addr,
		drainBudget: *drainBudget,
		cfg: server.Config{
			HistoryPath:     *historyPath,
			Workers:         *workers,
			Concurrency:     *concurrency,
			Queue:           *queue,
			Timeout:         *timeout,
			MaxBodyBytes:    *maxBody,
			CacheEntries:    *cacheEntries,
			CacheBytes:      *cacheBytes,
			BatchSize:       *batchSize,
			BatchWait:       *batchWait,
			RuntimeInterval: *runtimeInterval,
			RequestIDSeed:   *requestIDSeed,
			Trace:           traceCfg,
			TraceStorePath:  *traceStore,
		},
	}
	if *sloConfig != "" {
		slo, err := server.LoadSLOConfig(*sloConfig)
		if err != nil {
			return nil, usageErr(fs, "-slo-config: %v", err)
		}
		o.cfg.SLO = slo
	}
	switch *accessLog {
	case "":
	case "-":
		o.cfg.AccessLog = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, usageErr(fs, "-access-log: %v", err)
		}
		o.cfg.AccessLog = f
		o.accessLogClose = f.Close
	}
	return o, nil
}

func cmdServe(args []string) error {
	o, err := buildServeOpts(args)
	if err != nil {
		return err
	}
	return serve(o)
}

func serve(o *serveOpts) error {
	// The service always records its telemetry — counters are how
	// operators see rejections, retries and breaker flips.
	obs.Enable()

	srv, err := server.New(o.cfg)
	if err != nil {
		if o.accessLogClose != nil {
			o.accessLogClose()
		}
		return err
	}

	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		tracing := "off"
		if o.cfg.Trace != nil {
			tracing = fmt.Sprintf("on (budget %d, store %s)", o.cfg.Trace.Budget, historyOrOff(o.cfg.TraceStorePath))
		}
		log.Printf("simprofd listening on http://%s (history: %s, tracing: %s)", o.addr, historyOrOff(o.cfg.HistoryPath), tracing)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		srv.Close()
		if o.accessLogClose != nil {
			o.accessLogClose()
		}
		return err
	case s := <-sig:
		log.Printf("simprofd: %v — draining (budget %v)", s, o.drainBudget)
	}

	// Drain: stop admitting profile work (503 + Retry-After), let
	// in-flight requests finish within the budget, then close the
	// listener. History appends are fsynced per record, so there is
	// nothing further to flush; Close stops the runtime collector and
	// flushes the access log's final shutdown line.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), o.drainBudget)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("simprofd: drain budget expired with requests in flight: %v", err)
	}
	err = httpSrv.Shutdown(ctx)
	srv.Close()
	if o.accessLogClose != nil {
		o.accessLogClose()
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("simprofd: drained cleanly")
	return nil
}

func historyOrOff(path string) string {
	if path == "" {
		return "disabled"
	}
	return path
}

// parseBucketBounds parses the -trace-buckets value: a comma-separated,
// strictly ascending list of positive millisecond bounds. Empty selects
// the engine default.
func parseBucketBounds(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	bounds := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q", p)
		}
		if v <= 0 {
			return nil, fmt.Errorf("bound %g must be positive", v)
		}
		if len(bounds) > 0 && v <= bounds[len(bounds)-1] {
			return nil, fmt.Errorf("bounds must be strictly ascending, got %g after %g", v, bounds[len(bounds)-1])
		}
		bounds = append(bounds, v)
	}
	return bounds, nil
}
