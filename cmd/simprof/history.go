package main

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"simprof/internal/cli"
	"simprof/internal/history"
	"simprof/internal/obs"
	"simprof/internal/report"
)

// defaultStorePath is where the history subcommands keep the
// append-only JSONL run store unless -store says otherwise.
const defaultStorePath = "simprof_history.jsonl"

// cmdHistory dispatches the cross-run observability subcommands:
//
//	simprof history record -manifest run.json [-bench bench.json]
//	simprof history list
//	simprof history show [-seq N]
//	simprof history diff [-a -2 -b -1]
//	simprof history gate -baseline BENCH_pipeline.json -bench cur.json
func cmdHistory(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: simprof history <record|list|show|diff|gate> [flags] (run 'simprof history <sub> -h' for flags)")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "record":
		return cmdHistoryRecord(rest)
	case "list":
		return cmdHistoryList(rest)
	case "show":
		return cmdHistoryShow(rest)
	case "diff":
		return cmdHistoryDiff(rest)
	case "gate":
		return cmdHistoryGate(rest)
	default:
		return fmt.Errorf("usage: simprof history: unknown subcommand %q (record, list, show, diff or gate)", sub)
	}
}

// loadBenchFile parses a benchmark result file: `go test -json` output
// (the format scripts/bench.sh writes) or plain -bench text.
func loadBenchFile(path string) ([]history.BenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return history.ParseTestJSON(f)
}

func cmdHistoryRecord(args []string) error {
	fs := cli.NewFlagSet("simprof history record")
	store := fs.String("store", defaultStorePath, "history store (JSONL, appended to)")
	manifestPath := fs.String("manifest", "", "telemetry manifest to record (written with -telemetry)")
	benchPath := fs.String("bench", "", "benchmark results to attach (go test -json output, e.g. BENCH_pipeline.json)")
	note := fs.String("note", "", "free-form note stored with the record")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *manifestPath == "" && *benchPath == "" {
		return cli.UsageErr(fs, "at least one of -manifest or -bench is required")
	}
	var m *obs.Manifest
	if *manifestPath != "" {
		var note string
		var err error
		m, note, err = obs.ReadManifestFileLenient(*manifestPath)
		if err != nil {
			return err
		}
		if note != "" {
			fmt.Fprintf(os.Stderr, "simprof: history record: note: %s\n", note)
		}
	}
	r := history.FromManifest(m)
	r.Note = *note
	if *benchPath != "" {
		rs, err := loadBenchFile(*benchPath)
		if err != nil {
			return err
		}
		if len(rs) == 0 {
			return fmt.Errorf("history record: %s holds no benchmark results", *benchPath)
		}
		r.Bench = rs
	}
	r, err := history.Open(*store).Append(r)
	if err != nil {
		return err
	}
	fmt.Printf("recorded run #%d (key %s, %d bench results) → %s\n",
		r.Seq, r.Key, len(r.Bench), *store)
	return nil
}

func cmdHistoryList(args []string) error {
	fs := cli.NewFlagSet("simprof history list")
	store := fs.String("store", defaultStorePath, "history store (JSONL)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	recs, skipped, err := history.Open(*store).Records()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Printf("%s: no records\n", *store)
		return nil
	}
	t := report.NewTable(fmt.Sprintf("%s — %d records", *store, len(recs)),
		"Seq", "Time", "Key", "Bench", "Note")
	for _, r := range recs {
		t.RowS(fmt.Sprint(r.Seq), r.Time, r.Key, fmt.Sprint(len(r.Bench)), r.Note)
	}
	t.Render(os.Stdout)
	if skipped > 0 {
		fmt.Printf("note: skipped %d corrupt/truncated line(s)\n", skipped)
	}
	return nil
}

func cmdHistoryShow(args []string) error {
	fs := cli.NewFlagSet("simprof history show")
	store := fs.String("store", defaultStorePath, "history store (JSONL)")
	seq := fs.Int("seq", 0, "record to show (0 = last, negative counts from the end)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	r, err := history.Open(*store).Get(*seq)
	if err != nil {
		return err
	}
	fmt.Printf("record #%d  %s  key %s\n", r.Seq, r.Time, r.Key)
	if r.Note != "" {
		fmt.Printf("note: %s\n", r.Note)
	}
	if r.Manifest != nil {
		fmt.Println()
		renderManifest(os.Stdout, r.Manifest, "", true)
	}
	if len(r.Bench) > 0 {
		t := report.NewTable(fmt.Sprintf("bench results (%d)", len(r.Bench)),
			"Benchmark", "Iters", "ns/op", "B/op", "allocs/op", "Other")
		for _, b := range r.Bench {
			t.RowS(b.Name, fmt.Sprint(b.Iters), fmtNs(b.NsPerOp),
				fmt.Sprintf("%.0f", b.BytesPerOp), fmt.Sprintf("%.0f", b.AllocsPerOp), fmtMetrics(b.Metrics))
		}
		t.Render(os.Stdout)
	}
	return nil
}

// fmtMetrics renders a result's custom per-op metrics as "unit=value"
// pairs in unit order.
func fmtMetrics(m map[string]float64) string {
	units := slices.Sorted(maps.Keys(m))
	pairs := make([]string, len(units))
	for i, u := range units {
		pairs[i] = fmt.Sprintf("%s=%.4g", u, m[u])
	}
	return strings.Join(pairs, " ")
}

func cmdHistoryDiff(args []string) error {
	fs := cli.NewFlagSet("simprof history diff")
	store := fs.String("store", defaultStorePath, "history store (JSONL)")
	aSeq := fs.Int("a", -2, "reference record (negative counts from the end)")
	bSeq := fs.Int("b", -1, "current record")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	st := history.Open(*store)
	a, err := st.Get(*aSeq)
	if err != nil {
		return err
	}
	b, err := st.Get(*bSeq)
	if err != nil {
		return err
	}
	renderDiff(os.Stdout, history.Compute(a, b))
	return nil
}

// renderDiff writes the cross-run comparison: stage-level span deltas,
// changed metrics, estimate-quality drift and benchmark medians.
func renderDiff(w *os.File, d *history.Diff) {
	fmt.Fprintf(w, "diff: #%d (%s) → #%d (%s)\n", d.A.Seq, d.A.Key, d.B.Seq, d.B.Key)

	if len(d.Spans) > 0 {
		t := report.NewTable("stages", "Stage", "A", "B", "Δ", "Ratio")
		for _, sd := range d.Spans {
			a, b, delta, ratio := "-", "-", "", ""
			if sd.ADurNS >= 0 {
				a = fmtDur(time.Duration(sd.ADurNS))
			}
			if sd.BDurNS >= 0 {
				b = fmtDur(time.Duration(sd.BDurNS))
			}
			if sd.ADurNS >= 0 && sd.BDurNS >= 0 {
				delta = fmtDurSigned(sd.DeltaNS)
				if sd.Ratio > 0 {
					ratio = fmt.Sprintf("%.2f×", sd.Ratio)
				}
			}
			t.RowS(sd.Path, a, b, delta, ratio)
		}
		t.Render(w)
	}

	var changed []history.MetricDelta
	for _, md := range d.Metrics {
		if md.Delta != 0 || md.OnlyIn != "" {
			changed = append(changed, md)
		}
	}
	if len(changed) > 0 {
		t := report.NewTable(fmt.Sprintf("metrics (%d changed of %d)", len(changed), len(d.Metrics)),
			"Metric", "Kind", "A", "B", "Δ")
		for _, md := range changed {
			a, b := fmt.Sprintf("%.6g", md.A), fmt.Sprintf("%.6g", md.B)
			switch md.OnlyIn {
			case "a":
				b = "-"
			case "b":
				a = "-"
			}
			t.RowS(md.Name, md.Kind, a, b, fmt.Sprintf("%+.6g", md.Delta))
		}
		t.Render(w)
	}

	if sd := d.Sampling; sd != nil {
		fmt.Fprintln(w, "\nestimate quality:")
		if sd.A != nil && sd.B != nil {
			fmt.Fprintf(w, "  est CPI %.4f → %.4f (drift %+.4f)\n", sd.A.EstCPI, sd.B.EstCPI, sd.EstDrift)
			fmt.Fprintf(w, "  SE      %.4f → %.4f (×%.2f)\n", sd.A.SE, sd.B.SE, sd.SERatio)
			fmt.Fprintf(w, "  CI width %.4f → %.4f, rel err %.2f%% → %.2f%%\n",
				sd.CIWidthA, sd.CIWidthB, 100*sd.RelErrA, 100*sd.RelErrB)
		} else {
			fmt.Fprintln(w, "  sampling section present in only one run")
		}
	}

	if len(d.Bench) > 0 {
		t := report.NewTable("benchmarks (median ns/op)", "Benchmark", "A", "B", "Ratio", "Samples")
		for _, bd := range d.Bench {
			a, b, ratio := "-", "-", ""
			if bd.ANs >= 0 {
				a = fmtNs(bd.ANs)
			}
			if bd.BNs >= 0 {
				b = fmtNs(bd.BNs)
			}
			if bd.Ratio > 0 {
				ratio = fmt.Sprintf("%.2f×", bd.Ratio)
			}
			t.RowS(bd.Name, a, b, ratio, fmt.Sprintf("%d/%d", bd.ASamples, bd.BSamples))
		}
		t.Render(w)
	}
}

func cmdHistoryGate(args []string) error {
	fs := cli.NewFlagSet("simprof history gate")
	baseline := fs.String("baseline", "", "baseline benchmark results (go test -json, e.g. the committed BENCH_pipeline.json)")
	benchPath := fs.String("bench", "", "current benchmark results to gate")
	maxSlowdown := fs.Float64("max-slowdown", history.DefaultGateOptions().MaxSlowdown,
		"minimum allowed slowdown fraction before a benchmark fails (0.25 = +25%)")
	madk := fs.Float64("madk", history.DefaultGateOptions().MADK,
		"noise multiplier: per-benchmark headroom is max(max-slowdown, madk·MAD/median)")
	perBench := fs.String("per-bench", "", `per-benchmark threshold overrides, "name=fraction[,name=fraction...]"`)
	baseManifest := fs.String("base-manifest", "", "baseline telemetry manifest for the SE gate (optional)")
	curManifest := fs.String("cur-manifest", "", "current telemetry manifest for the SE gate (optional)")
	maxSEInfl := fs.Float64("max-se-inflation", 0.5,
		"allowed standard-error inflation over the baseline manifest (0 disables)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *baseline == "" {
		return cli.UsageErr(fs, "-baseline is required")
	}
	if *benchPath == "" {
		return cli.UsageErr(fs, "-bench is required")
	}
	pb, err := history.ParsePerBench(*perBench)
	if err != nil {
		return cli.UsageErr(fs, "%v", err)
	}
	base, err := loadBenchFile(*baseline)
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("history gate: baseline %s holds no benchmark results", *baseline)
	}
	cur, err := loadBenchFile(*benchPath)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("history gate: %s holds no benchmark results", *benchPath)
	}
	opts := history.GateOptions{MaxSlowdown: *maxSlowdown, MADK: *madk, PerBench: pb, MaxSEInflation: *maxSEInfl}
	rep := history.Gate(base, cur, opts)
	if *baseManifest != "" && *curManifest != "" {
		bm, _, err := obs.ReadManifestFileLenient(*baseManifest)
		if err != nil {
			return err
		}
		cm, _, err := obs.ReadManifestFileLenient(*curManifest)
		if err != nil {
			return err
		}
		rep.SE = history.GateSE(bm, cm, opts.MaxSEInflation)
		if rep.SE != nil && rep.SE.Regressed {
			rep.Failed = true
		}
	}
	renderGate(os.Stdout, rep)
	if rep.Failed {
		return fmt.Errorf("perf gate failed (see table above)")
	}
	fmt.Println("perf gate: ok")
	return nil
}

// renderGate writes the per-benchmark verdicts and the SE gate row.
func renderGate(w *os.File, rep *history.GateReport) {
	t := report.NewTable("perf gate (median-of-N vs baseline, MAD-scaled headroom)",
		"Benchmark", "Base", "Cur", "Ratio", "Noise", "Allowed", "Status")
	for _, r := range rep.Rows {
		base, cur, ratio := "-", "-", ""
		if r.BaseNs >= 0 {
			base = fmtNs(r.BaseNs)
		}
		if r.CurNs >= 0 {
			cur = fmtNs(r.CurNs)
		}
		if r.Ratio > 0 {
			ratio = fmt.Sprintf("%.2f×", r.Ratio)
		}
		t.RowS(r.Name, base, cur, ratio,
			fmt.Sprintf("%.1f%%", 100*r.Noise),
			fmt.Sprintf("+%.0f%%", 100*r.Threshold), r.Status)
	}
	t.Render(w)
	if rep.SE != nil {
		status := "ok"
		if rep.SE.Regressed {
			status = "regressed"
		}
		fmt.Fprintf(w, "SE gate: %.4f → %.4f (inflation %+.1f%%, allowed +%.0f%%) %s\n",
			rep.SE.BaseSE, rep.SE.CurSE, 100*rep.SE.Inflation, 100*rep.SE.MaxInflation, status)
	}
}

// fmtNs renders an ns/op quantity with a unit that keeps 3-4
// significant digits readable across the ns–s range.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.1fns", ns)
	}
}

// fmtDurSigned renders a nanosecond delta with an explicit sign.
func fmtDurSigned(ns int64) string {
	if ns < 0 {
		return "-" + fmtDur(time.Duration(-ns))
	}
	return "+" + fmtDur(time.Duration(ns))
}
