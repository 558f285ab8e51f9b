// Command simprofd serves SimProf's profiling pipeline over HTTP with
// resilience built in: per-request deadlines, bounded-queue admission
// with backpressure, crash-safe history persistence, and
// graceful SIGTERM drain.
//
// Subcommands:
//
//	simprofd [serve] [flags]   run the service (the default)
//	simprofd status -addr ...  render a running instance's readiness
//	                           and SLO burn rates as a table
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
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 while draining)
//
// Every response carries an X-Request-Id (caller-provided or
// generated); with -access-log the service writes one structured JSON
// line per request, and a profile request's line carries its stage
// ledger: read_ms, hash_ms, enqueue_ms, decode_ms, form_ms, sample_ms,
// flush_ms and encode_ms (the pipeline stages and the flush only on
// the request that ran them, a cache miss), handle_ms for the whole
// request, and dominant naming the largest stage. Errors come back as {"error": ..., "class": ...}
// with the class mapped to the status code: 400 bad_input, 429
// overload (plus Retry-After), 503 unavailable, 504 timeout.
//
// Profile serving is deduplicated by default: responses carry
// X-Simprof-Cache saying how they were produced — miss (computed),
// hit (served from the content-hash result cache, tune with
// -cache-entries/-cache-bytes), or coalesced (shared a concurrent
// identical request's execution). Distinct requests each start their
// own execution as soon as an admission slot frees.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simprof/internal/cli"
	"simprof/internal/obs"
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
	case "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "simprofd: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, cli.ErrHelp) {
		fmt.Fprintf(os.Stderr, "simprofd: %v\n", err)
	}
	os.Exit(cli.ExitCode(err))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: simprofd [command] [flags]

commands:
  serve   run the profiling service (default when no command is given)
  status  render a running instance's readiness and SLO burn rates

run 'simprofd <command> -h' for the command's flags`)
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
	fs := cli.NewFlagSet("simprofd serve")
	addr := fs.String("addr", "localhost:7041", "listen address")
	historyPath := fs.String("history", "simprofd-history.jsonl", "history store path ('' disables persistence)")
	workers := fs.Int("workers", 0, "pipeline worker bound per request (0 = GOMAXPROCS)")
	concurrency := fs.Int("concurrency", 2, "profile requests executing at once")
	queue := fs.Int("queue", 8, "profile requests allowed to wait beyond that")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := fs.Int64("max-body", 64<<20, "trace upload size limit in bytes (oversize uploads are refused as bad_input)")
	cacheEntries := fs.Int("cache-entries", 512, "content-hash result cache entry bound")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "content-hash result cache resident-byte bound")
	drainBudget := fs.Duration("drain", 20*time.Second, "graceful-shutdown budget for in-flight requests")
	sloConfig := fs.String("slo-config", "", "JSON SLO objectives file ('' selects the built-in defaults)")
	accessLog := fs.String("access-log", "", "access-log destination: '' disables, '-' is stdout, else a file appended to")
	runtimeInterval := fs.Duration("runtime-interval", 10*time.Second, "runtime-metrics sampling period (0 disables the collector)")
	requestIDSeed := fs.Uint64("request-id-seed", 0x51d0, "seed for generated request IDs")
	if err := cli.Parse(fs, args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, cli.UsageErr(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *timeout <= 0 {
		return nil, cli.UsageErr(fs, "-timeout must be positive, got %v", *timeout)
	}
	if *drainBudget <= 0 {
		return nil, cli.UsageErr(fs, "-drain must be positive, got %v", *drainBudget)
	}
	if *concurrency < 1 {
		return nil, cli.UsageErr(fs, "-concurrency must be at least 1, got %d", *concurrency)
	}
	if *workers < 0 {
		return nil, cli.UsageErr(fs, "-workers must not be negative, got %d", *workers)
	}
	if *maxBody < 1 {
		return nil, cli.UsageErr(fs, "-max-body must be at least 1, got %d", *maxBody)
	}
	if *cacheEntries < 1 {
		return nil, cli.UsageErr(fs, "-cache-entries must be at least 1, got %d", *cacheEntries)
	}
	if *cacheBytes < 1 {
		return nil, cli.UsageErr(fs, "-cache-bytes must be at least 1, got %d", *cacheBytes)
	}
	if *runtimeInterval < 0 {
		return nil, cli.UsageErr(fs, "-runtime-interval must not be negative, got %v", *runtimeInterval)
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
			RuntimeInterval: *runtimeInterval,
			RequestIDSeed:   *requestIDSeed,
		},
	}
	if *sloConfig != "" {
		slo, err := server.LoadSLOConfig(*sloConfig)
		if err != nil {
			return nil, cli.UsageErr(fs, "-slo-config: %v", err)
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
			return nil, cli.UsageErr(fs, "-access-log: %v", err)
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
	// operators see rejections, retries and drains.
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
		log.Printf("simprofd listening on http://%s (history: %s)", o.addr, historyOrOff(o.cfg.HistoryPath))
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
