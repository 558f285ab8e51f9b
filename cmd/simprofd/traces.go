package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"simprof/internal/cli"
	"simprof/internal/report"
	"simprof/internal/resilience"
	"simprof/internal/server"
)

// cmdTraces renders a running simprofd's retained request traces: the
// retention engine's status (per-stratum inclusion probabilities, the
// weighted latency estimate) and the trace listing.
func cmdTraces(args []string) error {
	fs := cli.NewFlagSet("simprofd traces")
	addr := fs.String("addr", "localhost:7041", "simprofd address (host:port or http:// URL)")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	route := fs.String("route", "", "filter: normalized route (e.g. /v1/profile)")
	class := fs.String("status-class", "", "filter: status class (2xx, 3xx, 4xx, 5xx)")
	bucket := fs.String("bucket", "", "filter: latency bucket label (e.g. '<5ms', '>=500ms')")
	recent := fs.Bool("recent", false, "list the most-recent completions instead of the retained set")
	limit := fs.Int("limit", 20, "max traces listed, newest win (0 = unlimited)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.UsageErr(fs, "unexpected argument %q", fs.Arg(0))
	}
	if *timeout <= 0 {
		return cli.UsageErr(fs, "-timeout must be positive, got %v", *timeout)
	}
	if *limit < 0 {
		return cli.UsageErr(fs, "-limit must not be negative, got %d", *limit)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	q := url.Values{}
	if *route != "" {
		q.Set("route", *route)
	}
	if *class != "" {
		q.Set("status_class", *class)
	}
	if *bucket != "" {
		q.Set("latency_bucket", *bucket)
	}
	if *recent {
		q.Set("set", "recent")
	}
	q.Set("limit", fmt.Sprint(*limit))
	return tracesRender(os.Stdout, base, *timeout, q)
}

// tracesRender fetches /v1/traces and renders it to w. Split from
// cmdTraces so tests can point it at an httptest server.
func tracesRender(w io.Writer, baseURL string, timeout time.Duration, q url.Values) error {
	client := &http.Client{Timeout: timeout}
	u := baseURL + "/v1/traces"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}

	var body struct {
		server.TracesResponse
		Error string `json:"error"` // set on the error envelope instead
	}
	status, err := getJSON(client, u, &body)
	if err != nil {
		return resilience.Unavailable(fmt.Errorf("traces: %w", err))
	}
	if status != http.StatusOK {
		return fmt.Errorf("traces: %s (HTTP %d)", body.Error, status)
	}
	st := body.Status

	fmt.Fprintf(w, "simprofd %s\n", baseURL)
	fmt.Fprintf(w, "  retained: %d/%d (%.0f%% of budget, %d forced)  completed: %d  evicted: %d",
		st.Retained, st.Budget, st.BudgetUtilization*100, st.ForcedRetained, st.Completed, st.Evicted)
	if st.PersistDropped > 0 {
		fmt.Fprintf(w, "  persist-dropped: %d", st.PersistDropped)
	}
	fmt.Fprintln(w)
	if est := st.Estimate; est != nil {
		fmt.Fprintf(w, "  weighted latency over %d of %d requests (kept %d, eff n %.0f):\n",
			est.CoveredN, est.N, est.Kept, est.EffN)
		fmt.Fprintf(w, "    mean %.2fms ± %.2f", est.MeanMS, est.MeanSEMS)
		for _, qe := range est.Quantiles {
			fmt.Fprintf(w, "   p%.0f %.2fms ± %.2f", qe.Q*100, qe.ValueMS, qe.SEMS)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "    histogram (all %d requests): p50 %.2fms  p90 %.2fms  p99 %.2fms\n",
			est.N, est.HistP50MS, est.HistP90MS, est.HistP99MS)
	}
	fmt.Fprintln(w)

	tb := report.NewTable("Retention strata",
		"Route", "Class", "Bucket", "Seen", "Forced", "Kept", "Target", "π", "Forced π", "Mean ms", "σ ms")
	for _, row := range st.Strata {
		pi, fpi := "-", "-"
		if row.Seen-row.ForcedSeen > 0 {
			pi = fmt.Sprintf("%.3f", row.InclusionP)
		}
		if row.ForcedSeen > 0 {
			fpi = fmt.Sprintf("%.3f", row.ForcedInclusionP)
		}
		tb.RowS(row.Route, row.StatusClass, row.LatencyBucket,
			fmt.Sprint(row.Seen), fmt.Sprint(row.ForcedSeen),
			fmt.Sprint(row.Kept+row.ForcedKept), fmt.Sprint(row.Target),
			pi, fpi, fmt.Sprintf("%.2f", row.MeanMS), fmt.Sprintf("%.2f", row.SigmaMS))
	}
	tb.Render(w)

	fmt.Fprintln(w)
	tt := report.NewTable("Traces",
		"Seq", "ID", "Route", "Status", "Class", "Latency", "Bucket", "Forced", "Weight", "Spans")
	for _, t := range body.Traces {
		forced, spans := "", ""
		if t.Forced {
			forced = "forced"
		}
		if t.HasSpans {
			spans = "yes"
		}
		tt.RowS(fmt.Sprint(t.Seq), t.ID, t.Route, fmt.Sprint(t.Status), t.Class,
			fmt.Sprintf("%.2fms", t.LatencyMS), t.LatencyBucket, forced,
			fmt.Sprintf("%.1f", t.Weight), spans)
	}
	tt.Render(w)
	return nil
}
