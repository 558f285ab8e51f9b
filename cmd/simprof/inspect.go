package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"simprof/internal/cli"
	"simprof/internal/obs"
	"simprof/internal/obs/traceevent"
	"simprof/internal/report"
)

// cmdInspect renders a telemetry manifest written by another simprof
// run with -telemetry: build and workload provenance, the span tree
// with hot stages, the Neyman allocation table, fault-channel counts
// and the metric snapshot. Decoding is lenient: a manifest written by
// a newer binary, or one with sections stripped, renders what is there
// plus a note — it never fails the whole render.
func cmdInspect(args []string) error {
	fs := cli.NewFlagSet("simprof inspect")
	path := fs.String("manifest", "", "telemetry manifest written with -telemetry")
	metrics := fs.Bool("metrics", true, "render the metric snapshot")
	tracePath := fs.String("trace", "", "also export the manifest as Chrome trace-event JSON (Perfetto / about://tracing) to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return cli.UsageErr(fs, "-manifest is required")
	}
	m, note, err := obs.ReadManifestFileLenient(*path)
	if err != nil {
		return err
	}
	renderManifest(os.Stdout, m, note, *metrics)
	if *tracePath != "" {
		if err := traceevent.WriteFile(*tracePath, m); err != nil {
			return err
		}
		fmt.Printf("\ntrace events → %s (load in ui.perfetto.dev)\n", *tracePath)
	}
	return nil
}

// renderManifest writes the human-readable view of a manifest. Missing
// or partially-filled sections degrade to a note line, so inspect can
// render hand-stripped and version-skewed manifests.
func renderManifest(w io.Writer, m *obs.Manifest, note string, withMetrics bool) {
	fmt.Fprintf(w, "%s  (manifest v%d)\n", orUnknown(m.Tool), m.Version)
	if note != "" {
		fmt.Fprintf(w, "note:  %s\n", note)
	}
	if len(m.Args) > 0 {
		fmt.Fprintf(w, "args:  %s\n", strings.Join(m.Args, " "))
	}
	if m.Build.GoVersion == "" && m.Build.Revision == "" {
		fmt.Fprintln(w, "build: (not recorded)")
	} else {
		fmt.Fprintf(w, "build: %s %s", m.Build.GoVersion, shortRev(m.Build.Revision))
		if m.Build.Modified {
			fmt.Fprint(w, " (dirty)")
		}
		fmt.Fprintln(w)
	}

	if wl := m.Workload; wl != nil {
		fmt.Fprintf(w, "\nworkload: %s on %s (input %q, seed %d, workers %d)\n",
			wl.Benchmark, wl.Framework, wl.Input, wl.Seed, wl.Workers)
		fmt.Fprintf(w, "  %d units × %dM instructions, oracle CPI %.4f\n",
			wl.Units, wl.UnitInstr/1_000_000, wl.OracleCPI)
		if wl.DegradedFraction > 0 {
			fmt.Fprintf(w, "  degraded units: %.1f%% (%s)\n", 100*wl.DegradedFraction, wl.Quality)
		}
	} else {
		fmt.Fprintln(w, "\nworkload: (not recorded)")
	}

	if fi := m.Faults; fi != nil {
		fmt.Fprintf(w, "\nfaults injected (%s, seed %d):\n", fi.Spec, fi.Seed)
		t := report.NewTable("", "Channel", "Count")
		t.RowS("counters dropped", fmt.Sprint(fi.CountersDropped))
		t.RowS("multiplexed", fmt.Sprint(fi.Multiplexed))
		t.RowS("snapshots lost", fmt.Sprint(fi.SnapshotsLost))
		t.RowS("crashed threads", fmt.Sprint(fi.CrashedThreads))
		t.RowS("units lost", fmt.Sprint(fi.UnitsLost))
		t.RowS("duplicated", fmt.Sprint(fi.Duplicated))
		t.RowS("displaced", fmt.Sprint(fi.Displaced))
		t.Render(w)
		if fi.Repair != "" {
			fmt.Fprintf(w, "  repair: %s\n", fi.Repair)
		}
	}

	if pi := m.Phases; pi != nil {
		fmt.Fprintf(w, "\nphases: k=%d chosen (silhouette %.3f)\n", pi.K, pi.Silhouette)
		if len(pi.KScores) > 0 {
			var parts []string
			for i, s := range pi.KScores {
				mark := ""
				if i+1 == pi.K {
					mark = "*"
				}
				if math.IsNaN(s) {
					parts = append(parts, fmt.Sprintf("k=%d: -", i+1))
					continue
				}
				parts = append(parts, fmt.Sprintf("k=%d: %.3f%s", i+1, s, mark))
			}
			fmt.Fprintf(w, "  sweep: %s\n", strings.Join(parts, "  "))
		}
	}

	if si := m.Sampling; si != nil {
		fmt.Fprintf(w, "\nsampling: %s, n=%d\n", si.Method, si.N)
		fmt.Fprintf(w, "  est CPI %.4f ± %.4f [%.4f, %.4f] at %.1f%% (oracle %.4f, rel err %.2f%%)\n",
			si.EstCPI, si.SE, si.CILo, si.CIHi, 100*si.Confidence, si.OracleCPI, 100*si.RelErr)
		if si.SEInflation > 1 {
			fmt.Fprintf(w, "  SE inflated ×%.2f by mean-imputed strata\n", si.SEInflation)
		}
		if len(si.Strata) > 0 {
			t := report.NewTable("Neyman allocation (Eq. 1)",
				"Phase", "Units", "Measured", "Weight", "Sigma", "Alloc", "Sampled mean", "Imputed")
			for _, s := range si.Strata {
				imputed := ""
				if s.Imputed {
					imputed = "yes"
				}
				t.RowS(fmt.Sprint(s.Phase), fmt.Sprint(s.Units), fmt.Sprint(s.Measured),
					fmt.Sprintf("%.1f%%", 100*s.Weight), fmt.Sprintf("%.3f", s.Sigma),
					fmt.Sprint(s.Alloc), fmt.Sprintf("%.4f", s.SampledMean), imputed)
			}
			t.Render(w)
		} else {
			fmt.Fprintln(w, "  allocation table: (not recorded)")
		}
	}

	if m.Spans != nil {
		fmt.Fprintf(w, "\nspan tree (total %s):\n", fmtDur(m.Spans.Duration()))
		m.Spans.Walk(func(sp *obs.Span, depth int) {
			fmt.Fprintf(w, "  %s%-*s %10s\n", strings.Repeat("  ", depth),
				40-2*depth, sp.Name, fmtDur(sp.Duration()))
		})
		renderHotStages(w, m.Spans)
	} else {
		fmt.Fprintln(w, "\nspan tree: (not recorded)")
	}

	renderTimerSamples(w, m)

	if withMetrics && len(m.Metrics) > 0 {
		fmt.Fprintln(w, "\nmetrics:")
		// Pad to the widest name{labels} so labeled children (which can
		// far exceed the bare-name width) keep the value columns aligned.
		width := 32
		names := make([]string, len(m.Metrics))
		for i, mt := range m.Metrics {
			names[i] = mt.Name
			if lk := mt.LabelsKey(); lk != "" {
				names[i] += "{" + lk + "}"
			}
			if len(names[i]) > width {
				width = len(names[i])
			}
		}
		for i, mt := range m.Metrics {
			switch mt.Kind {
			case "histogram":
				mean := 0.0
				if mt.Value > 0 {
					mean = mt.Sum / mt.Value
				}
				fmt.Fprintf(w, "  %-*s count=%.0f sum=%.4g mean=%.4g%s\n",
					width, names[i], mt.Value, mt.Sum, mean, quantileSuffix(mt))
			default:
				fmt.Fprintf(w, "  %-*s %v\n", width, names[i], mt.Value)
			}
		}
	}
}

// quantileSuffix renders " p50=… p90=… p99=…" for a histogram whose
// buckets made it into the snapshot, and nothing otherwise.
func quantileSuffix(mt obs.Metric) string {
	p50, p90, p99 := mt.Quantile(0.50), mt.Quantile(0.90), mt.Quantile(0.99)
	if math.IsNaN(p50) {
		return ""
	}
	return fmt.Sprintf(" p50=%.4g p90=%.4g p99=%.4g", p50, p90, p99)
}

// renderHotStages lists the stages with the largest self time (span
// duration minus children) — where the run actually went.
func renderHotStages(w io.Writer, root *obs.Span) {
	type stage struct {
		name string
		self time.Duration
		gid  int64
	}
	var stages []stage
	total := root.Duration()
	root.Walk(func(sp *obs.Span, depth int) {
		stages = append(stages, stage{sp.Name, sp.SelfDuration(), sp.GID})
	})
	sort.SliceStable(stages, func(a, b int) bool { return stages[a].self > stages[b].self })
	if len(stages) > 8 {
		stages = stages[:8]
	}
	t := report.NewTable("hot stages (self time)", "Stage", "Self", "Share", "Goroutine")
	for _, s := range stages {
		share := 0.0
		if total > 0 {
			share = float64(s.self) / float64(total)
		}
		gid := "-"
		if s.gid != 0 {
			gid = fmt.Sprint(s.gid)
		}
		t.RowS(s.name, fmtDur(s.self), fmt.Sprintf("%.1f%%", 100*share), gid)
	}
	t.Render(w)
}

// renderTimerSamples summarizes the concurrent timer samples per timer
// name: how many intervals, across how many worker goroutines, and how
// much wall time they cover in total.
func renderTimerSamples(w io.Writer, m *obs.Manifest) {
	if len(m.TimerSamples) == 0 {
		return
	}
	type agg struct {
		count int
		gids  map[int64]bool
		durNS int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range m.TimerSamples {
		a := byName[s.Name]
		if a == nil {
			a = &agg{gids: map[int64]bool{}}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.count++
		a.gids[s.GID] = true
		a.durNS += s.DurNS
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\nworker timer samples (%d intervals", len(m.TimerSamples))
	if m.TimerSamplesDropped > 0 {
		fmt.Fprintf(w, ", %d dropped past the buffer bound", m.TimerSamplesDropped)
	}
	fmt.Fprintln(w, "):")
	t := report.NewTable("", "Timer", "Intervals", "Goroutines", "Total")
	for _, n := range names {
		a := byName[n]
		t.RowS(n, fmt.Sprint(a.count), fmt.Sprint(len(a.gids)), fmtDur(time.Duration(a.durNS)))
	}
	t.Render(w)
}

func orUnknown(s string) string {
	if s == "" {
		return "(unknown tool)"
	}
	return s
}

func shortRev(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
