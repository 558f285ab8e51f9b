package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"simprof/internal/obs"
	"simprof/internal/server"
)

// TestServeFlagValidation checks every bad serve flag fails through the
// uniform "usage: simprofd serve: ..." error path with exit code 2 —
// validation runs before anything listens.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-wat"}, "usage: simprofd serve"},
		{"stray-arg", []string{"extra"}, `unexpected argument "extra"`},
		{"neg-timeout", []string{"-timeout", "-1s"}, "-timeout must be positive"},
		{"zero-timeout", []string{"-timeout", "0"}, "-timeout must be positive"},
		{"neg-drain", []string{"-drain", "-5s"}, "-drain must be positive"},
		{"zero-concurrency", []string{"-concurrency", "0"}, "-concurrency must be at least 1"},
		{"neg-runtime-interval", []string{"-runtime-interval", "-10s"}, "-runtime-interval must not be negative"},
		{"neg-workers", []string{"-workers", "-3"}, "-workers must not be negative"},
		{"zero-max-body", []string{"-max-body", "0"}, "-max-body must be at least 1"},
		{"neg-max-body", []string{"-max-body", "-5"}, "-max-body must be at least 1"},
		{"zero-cache-entries", []string{"-cache-entries", "0"}, "-cache-entries must be at least 1"},
		{"bad-neg-cache-entries", []string{"-cache-entries", "-2"}, "-cache-entries must be at least 1"},
		{"neg-one-cache-entries", []string{"-cache-entries", "-1"}, "-cache-entries must be at least 1"},
		{"zero-cache-bytes", []string{"-cache-bytes", "0"}, "-cache-bytes must be at least 1"},
		{"zero-batch-size", []string{"-batch-size", "0"}, "-batch-size must be at least 1"},
		{"bad-neg-batch-size", []string{"-batch-size", "-8"}, "-batch-size must be at least 1"},
		{"neg-one-batch-size", []string{"-batch-size", "-1"}, "-batch-size must be at least 1"},
		{"zero-batch-wait", []string{"-batch-wait", "0"}, "-batch-wait must be positive"},
		{"neg-batch-wait", []string{"-batch-wait", "-1ms"}, "-batch-wait must be positive"},
		{"missing-slo-config", []string{"-slo-config", "/nonexistent/slo.json"}, "-slo-config"},
		{"bad-access-log-dir", []string{"-access-log", "/nonexistent/dir/access.log"}, "-access-log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildServeOpts(tc.args)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if got := exitCodeFor(err); got != 2 {
				t.Fatalf("exit code %d, want 2", got)
			}
			if !strings.HasPrefix(err.Error(), "usage: simprofd serve") {
				t.Fatalf("error %q does not use the uniform usage prefix", err)
			}
		})
	}
}

// TestServeBadSLOConfigContent: a present but invalid objectives file
// is a usage error naming the offending field.
func TestServeBadSLOConfigContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(path, []byte(`{"routes":{"/v1/profile":{"availability":1.5,"latency_p":0.99,"latency_threshold_ms":500}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := buildServeOpts([]string{"-slo-config", path})
	if err == nil || !strings.Contains(err.Error(), "availability") {
		t.Fatalf("invalid availability not rejected: %v", err)
	}
	if exitCodeFor(err) != 2 {
		t.Fatalf("exit code %d, want 2", exitCodeFor(err))
	}
}

// TestServeGoodFlags: a valid flag set builds the expected config,
// including the SLO objectives and an append-mode access log.
func TestServeGoodFlags(t *testing.T) {
	dir := t.TempDir()
	sloPath := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(sloPath, []byte(`{"routes":{"/v1/profile":{"availability":0.99,"latency_p":0.95,"latency_threshold_ms":250}},"burn_alert":6}`), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "access.log")
	o, err := buildServeOpts([]string{
		"-addr", "localhost:0",
		"-history", "",
		"-slo-config", sloPath,
		"-access-log", logPath,
		"-runtime-interval", "0",
	})
	if err != nil {
		t.Fatalf("buildServeOpts: %v", err)
	}
	defer o.accessLogClose()
	if o.cfg.SLO == nil || o.cfg.SLO.BurnAlert != 6 {
		t.Fatalf("SLO config not loaded: %+v", o.cfg.SLO)
	}
	obj, ok := o.cfg.SLO.Routes["/v1/profile"]
	if !ok || obj.LatencyMS != 250 {
		t.Fatalf("route objective not loaded: %+v", o.cfg.SLO.Routes)
	}
	if o.cfg.AccessLog == nil || o.accessLogClose == nil {
		t.Fatal("access log file not opened")
	}
	if o.cfg.RuntimeInterval != 0 {
		t.Fatalf("runtime interval = %v, want 0", o.cfg.RuntimeInterval)
	}
}

// TestServeBatchFlags: the cache/batch/body knobs and the -workers
// bound land in the server config.
func TestServeBatchFlags(t *testing.T) {
	o, err := buildServeOpts([]string{
		"-history", "",
		"-workers", "3",
		"-max-body", "1048576",
		"-cache-entries", "64",
		"-cache-bytes", "8388608",
		"-batch-size", "16",
		"-batch-wait", "5ms",
	})
	if err != nil {
		t.Fatalf("buildServeOpts: %v", err)
	}
	if o.cfg.Workers != 3 {
		t.Fatalf("Workers = %d, want 3", o.cfg.Workers)
	}
	if o.cfg.MaxBodyBytes != 1<<20 {
		t.Fatalf("MaxBodyBytes = %d, want %d", o.cfg.MaxBodyBytes, 1<<20)
	}
	if o.cfg.CacheEntries != 64 || o.cfg.CacheBytes != 8<<20 {
		t.Fatalf("cache bounds = (%d, %d), want (64, %d)", o.cfg.CacheEntries, o.cfg.CacheBytes, 8<<20)
	}
	if o.cfg.BatchSize != 16 || o.cfg.BatchWait != 5*time.Millisecond {
		t.Fatalf("batch knobs = (%d, %v), want (16, 5ms)", o.cfg.BatchSize, o.cfg.BatchWait)
	}
}

// TestStatusFlagValidation mirrors the serve table for the status
// subcommand.
func TestStatusFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-wat"}, "usage: simprofd status"},
		{"stray-arg", []string{"extra"}, `unexpected argument "extra"`},
		{"zero-timeout", []string{"-timeout", "0"}, "-timeout must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdStatus(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
			if exitCodeFor(err) != 2 {
				t.Fatalf("exit code %d, want 2", exitCodeFor(err))
			}
		})
	}
}

// TestHelpFlag: -h prints usage and resolves to errHelp (exit 0).
func TestHelpFlag(t *testing.T) {
	if _, err := buildServeOpts([]string{"-h"}); err != errHelp {
		t.Fatalf("serve -h: got %v, want errHelp", err)
	}
	if err := cmdStatus([]string{"-h"}); err != errHelp {
		t.Fatalf("status -h: got %v, want errHelp", err)
	}
}

// TestStatusRender drives the status view against a live in-process
// server: readiness, the SLO table and the alert column all render.
func TestStatusRender(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Default().Reset()
		obs.Disable()
	}()
	srv, err := server.New(server.Config{HistoryPath: ""})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	if err := statusRender(&buf, ts.URL, 5*time.Second); err != nil {
		t.Fatalf("statusRender: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"ready:   ok", "breaker: closed", "/v1/profile", "SLO burn rates"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
}

// TestStatusRenderUnreachable: a dead address classifies as unavailable
// (exit 6), not an internal failure.
func TestStatusRenderUnreachable(t *testing.T) {
	var buf bytes.Buffer
	err := statusRender(&buf, "http://127.0.0.1:1", 500*time.Millisecond)
	if err == nil {
		t.Fatal("expected an error for an unreachable daemon")
	}
	if got := exitCodeFor(err); got != 6 {
		t.Fatalf("exit code %d, want 6 (unavailable)", got)
	}
}

// TestStatusRenderDraining: /readyz answering 503 still renders (the
// operator needs the view most when the service is degraded).
func TestStatusRenderDraining(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining","breaker":"closed","active":1,"waiting":0}`))
	})
	mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"burn_alert":14.4,"routes":[]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var buf bytes.Buffer
	if err := statusRender(&buf, ts.URL, time.Second); err != nil {
		t.Fatalf("statusRender: %v", err)
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Fatalf("draining state not rendered:\n%s", buf.String())
	}
}
