package main

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"simprof/internal/cli"
	"simprof/internal/obs"
	"simprof/internal/obs/reqtrace"
	"simprof/internal/server"
)

// TestServeTraceFlags: the -trace flag family builds the retention
// config, and trace tuning without -trace is a usage error.
func TestServeTraceFlags(t *testing.T) {
	o, err := buildServeOpts([]string{
		"-history", "",
		"-trace",
		"-trace-budget", "64",
		"-trace-ring", "8",
		"-trace-rebalance", "16",
		"-trace-seed", "99",
		"-trace-buckets", "1, 10, 100",
		"-trace-store", "traces.jsonl",
	})
	if err != nil {
		t.Fatalf("buildServeOpts: %v", err)
	}
	tc := o.cfg.Trace
	if tc == nil || tc.Budget != 64 || tc.Ring != 8 || tc.Rebalance != 16 || tc.Seed != 99 {
		t.Fatalf("trace config %+v", tc)
	}
	if len(tc.BucketBoundsMS) != 3 || tc.BucketBoundsMS[2] != 100 {
		t.Fatalf("bucket bounds %v", tc.BucketBoundsMS)
	}
	if o.cfg.TraceStorePath != "traces.jsonl" {
		t.Fatalf("trace store path %q", o.cfg.TraceStorePath)
	}

	// Defaults: no -trace means no engine.
	o, err = buildServeOpts([]string{"-history", ""})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Trace != nil {
		t.Fatalf("tracing on without -trace: %+v", o.cfg.Trace)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"tuning-without-trace", []string{"-trace-budget", "10"}, "requires -trace"},
		{"store-without-trace", []string{"-trace-store", "x.jsonl"}, "requires -trace"},
		{"zero-budget", []string{"-trace", "-trace-budget", "0"}, "-trace-budget must be at least 1"},
		{"zero-ring", []string{"-trace", "-trace-ring", "0"}, "-trace-ring must be at least 1"},
		{"zero-rebalance", []string{"-trace", "-trace-rebalance", "0"}, "-trace-rebalance must be at least 1"},
		{"bad-bucket", []string{"-trace", "-trace-buckets", "5,abc"}, "-trace-buckets"},
		{"descending-buckets", []string{"-trace", "-trace-buckets", "100,5"}, "strictly ascending"},
		{"neg-bucket", []string{"-trace", "-trace-buckets", "-1"}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildServeOpts(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
			if cli.ExitCode(err) != 2 {
				t.Fatalf("exit code %d, want 2", cli.ExitCode(err))
			}
		})
	}
}

// TestTracesFlagValidation mirrors the other subcommands' flag tables.
func TestTracesFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-flag", []string{"-wat"}, "usage: simprofd traces"},
		{"stray-arg", []string{"extra"}, `unexpected argument "extra"`},
		{"zero-timeout", []string{"-timeout", "0"}, "-timeout must be positive"},
		{"neg-limit", []string{"-limit", "-2"}, "-limit must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdTraces(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not contain %q", err, tc.want)
			}
			if cli.ExitCode(err) != 2 {
				t.Fatalf("exit code %d, want 2", cli.ExitCode(err))
			}
		})
	}
}

// TestTracesRender drives the traces view against a live in-process
// traced server: the retention summary, strata table and trace rows
// all render.
func TestTracesRender(t *testing.T) {
	obs.Enable()
	defer func() {
		obs.Default().Reset()
		obs.Disable()
	}()
	srv, err := server.New(server.Config{
		HistoryPath: "",
		Trace:       &reqtrace.Config{Budget: 16, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Generate traffic: a healthz round and a 404.
	client := ts.Client()
	for _, p := range []string{"/healthz", "/healthz", "/nope"} {
		resp, err := client.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var buf bytes.Buffer
	if err := tracesRender(&buf, ts.URL, 5*time.Second, url.Values{}); err != nil {
		t.Fatalf("tracesRender: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"retained:", "Retention strata", "/healthz", "Traces", "Weight"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestTracesRenderDisabled: against an untraced server the subcommand
// surfaces the service's refusal instead of an empty table.
func TestTracesRenderDisabled(t *testing.T) {
	srv, err := server.New(server.Config{HistoryPath: ""})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	err = tracesRender(&buf, ts.URL, 5*time.Second, url.Values{})
	if err == nil || !strings.Contains(err.Error(), "request tracing is disabled") {
		t.Fatalf("want disabled-tracing error, got %v", err)
	}
}
