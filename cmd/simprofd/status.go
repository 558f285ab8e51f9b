package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"simprof/internal/cli"
	"simprof/internal/report"
	"simprof/internal/resilience"
	"simprof/internal/server"
)

// cmdStatus renders a running simprofd's readiness and live SLO burn
// rates as a table — the operator's one-glance view.
func cmdStatus(args []string) error {
	fs := cli.NewFlagSet("simprofd status")
	addr := fs.String("addr", "localhost:7041", "simprofd address (host:port or http:// URL)")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.UsageErr(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *timeout <= 0 {
		return cli.UsageErr(fs, "-timeout must be positive, got %v", *timeout)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	return statusRender(os.Stdout, base, *timeout)
}

// readyzBody mirrors the /readyz response.
type readyzBody struct {
	Status  string `json:"status"`
	Active  int    `json:"active"`
	Waiting int    `json:"waiting"`
}

// statusRender fetches /readyz and /v1/slo from a running instance and
// renders them to w. Split from cmdStatus so tests can point it at an
// httptest server and capture the output.
func statusRender(w io.Writer, baseURL string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}

	var ready readyzBody
	readyStatus, err := getJSON(client, baseURL+"/readyz", &ready)
	if err != nil {
		return resilience.Unavailable(fmt.Errorf("readyz: %w", err))
	}

	var slo server.SLOStatus
	if _, err := getJSON(client, baseURL+"/v1/slo", &slo); err != nil {
		return resilience.Unavailable(fmt.Errorf("slo: %w", err))
	}

	fmt.Fprintf(w, "simprofd %s\n", baseURL)
	fmt.Fprintf(w, "  ready:   %s (HTTP %d)\n", ready.Status, readyStatus)
	fmt.Fprintf(w, "  active: %d  waiting: %d\n\n", ready.Active, ready.Waiting)

	tb := report.NewTable(fmt.Sprintf("SLO burn rates (alert > %.1f on both windows)", slo.BurnAlert),
		"Route", "Objective", "Fast burn (5m)", "Slow burn (1h)", "Lat fast", "Lat slow", "Window p99", "Alert")
	for _, r := range slo.Routes {
		obj := fmt.Sprintf("%.3g avail, p%.0f<%.0fms",
			r.Objective.Availability, r.Objective.LatencyP*100, r.Objective.LatencyMS)
		p99 := "-"
		if r.WindowSamples > 0 {
			p99 = fmt.Sprintf("%.1fms (n=%d)", r.WindowP99MS, r.WindowSamples)
		}
		alert := "ok"
		if r.Alert {
			alert = "ALERT"
		}
		tb.RowS(r.Route, obj,
			fmt.Sprintf("%.2f", r.FastBurn), fmt.Sprintf("%.2f", r.SlowBurn),
			fmt.Sprintf("%.2f", r.FastLatencyBurn), fmt.Sprintf("%.2f", r.SlowLatencyBurn),
			p99, alert)
	}
	tb.Render(w)
	return nil
}

// getJSON fetches url and decodes the JSON body into v, returning the
// HTTP status. Non-2xx statuses are not errors here: /readyz answers
// 503 while draining and the body still renders.
func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return resp.StatusCode, fmt.Errorf("decoding %s: %w", url, err)
	}
	return resp.StatusCode, nil
}
