// Command simprof drives the SimProf pipeline from the shell:
//
//	simprof profile -bench wc -framework spark -out wc_sp.gob
//	    profile a workload on the simulated machine and save the trace
//	simprof phases -trace wc_sp.gob
//	    form phases and print the phase table
//	simprof sample -trace wc_sp.gob -n 20
//	    select simulation points by stratified random sampling
//	simprof plan -trace wc_sp.gob -err 0.05
//	    compute the sample size needed for a target error bound
//	simprof compare -trace wc_sp.gob -n 20
//	    run all four sampling approaches and report their errors
//	simprof sensitivity -bench cc -framework spark -graphscale 19
//	    run the Table II input-sensitivity study for a graph workload
//	simprof inspect -manifest run.json
//	    render a telemetry manifest written with -telemetry
//	simprof history record|list|show|diff|gate
//	    cross-run store: append manifests + bench snapshots, diff two
//	    runs, gate benchmark results against a committed baseline
//
// Every pipeline command takes -telemetry <file> to write a JSON run
// manifest and -pprof <addr> to serve net/http/pprof while it runs.
// 'simprof profile -trace out.json' and 'simprof inspect -trace
// out.json' export the span tree and worker timer samples as Chrome
// trace-event JSON for Perfetto / about://tracing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"simprof/internal/cli"
	"simprof/internal/core"
	"simprof/internal/faults"
	"simprof/internal/phase"
	"simprof/internal/report"
	"simprof/internal/resilience"
	"simprof/internal/sampling"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/trace"
	_ "simprof/internal/tracebin" // registers the "bin" trace format
	"simprof/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "phases":
		err = cmdPhases(os.Args[2:])
	case "sample":
		err = cmdSample(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "sensitivity":
		err = cmdSensitivity(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "history":
		err = cmdHistory(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "simprof: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	switch {
	case err == nil:
	case errors.Is(err, cli.ErrHelp):
		// -h on a subcommand: usage was already printed.
	default:
		fmt.Fprintf(os.Stderr, "simprof: %v\n", err)
	}
	os.Exit(cli.ExitCode(err))
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: simprof <command> [flags]

commands:
  profile      profile a workload and write the trace to a file
  phases       form phases from a trace and print the phase table
  sample       select simulation points (stratified random sampling)
  plan         sample size needed for a target error bound
  compare      error of SECOND/SRS/CODE/SimProf on a trace
  sensitivity  input-sensitivity study for cc/rank (Table II inputs)
  inspect      render a telemetry manifest written with -telemetry
  history      cross-run store: record, list, show, diff, gate

run 'simprof <command> -h' for the command's flags`)
}

// validateWorkload rejects unknown -bench / -framework values up front
// instead of failing deep inside workload construction.
func validateWorkload(fs *flag.FlagSet, bench, fw string) error {
	known := workloads.Benchmarks()
	ok := false
	for _, b := range known {
		if b == bench {
			ok = true
			break
		}
	}
	if !ok {
		return cli.UsageErr(fs, "unknown -bench %q (choose from: %s)", bench, strings.Join(known, " "))
	}
	if fw != "spark" && fw != "hadoop" {
		return cli.UsageErr(fs, "unknown -framework %q (spark or hadoop)", fw)
	}
	return nil
}

// validateConfidence checks a -confidence level is a proper probability.
func validateConfidence(fs *flag.FlagSet, conf float64) error {
	if conf <= 0 || conf >= 1 {
		return cli.UsageErr(fs, "-confidence must be in (0,1), got %v", conf)
	}
	return nil
}

// workloadFlags registers the common workload-scale flags.
func workloadFlags(fs *flag.FlagSet) (*string, *string, *uint64, *workloads.Options) {
	bench := fs.String("bench", "wc", "benchmark: "+strings.Join(workloads.Benchmarks(), " "))
	fw := fs.String("framework", "spark", "framework: spark or hadoop")
	seed := fs.Uint64("seed", 42, "random seed")
	opts := &workloads.Options{}
	fs.IntVar(&opts.Cores, "cores", 4, "simulated cores / executor threads")
	fs.Int64Var(&opts.TextBytes, "textbytes", 0, "text corpus size (wc/grep/bayes)")
	fs.Int64Var(&opts.SortBytes, "sortbytes", 0, "sort input size")
	fs.IntVar(&opts.GraphScale, "graphscale", 0, "Kronecker scale for cc/rank")
	return bench, fw, seed, opts
}

func cmdProfile(args []string) error {
	fs := cli.NewFlagSet("simprof profile")
	bench, fw, seed, opts := workloadFlags(fs)
	out := fs.String("out", "", "output trace file")
	format := fs.String("format", "", "trace format: "+strings.Join(trace.FormatNames(), " ")+" (default: by extension)")
	faultSpec := fs.String("faults", "", `inject profiler faults before writing, e.g. "rate=0.05" or "drop=0.1,crash=0.02,snap=0.05" (keys: drop mux muxcov snap crash dup reorder rate)`)
	faultSeed := fs.Uint64("faultseed", 0, "seed for the fault injector (default: derived from -seed)")
	tel := telemetryFlagsWithTrace(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return cli.UsageErr(fs, "-out is required")
	}
	outFormat, err := formatForOut(fs, *out, *format)
	if err != nil {
		return err
	}
	if err := validateWorkload(fs, *bench, *fw); err != nil {
		return err
	}
	if err := tel.start("profile", args); err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	in, err := workloads.DefaultInput(*bench, *opts)
	if err != nil {
		return err
	}
	tr, err := core.ProfileWorkload(*bench, *fw, in, *opts, cfg)
	if err != nil {
		return err
	}
	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return cli.UsageErr(fs, "%v", err)
		}
		fcfg.Seed = *faultSeed
		if fcfg.Seed == 0 {
			fcfg.Seed = stats.SplitSeed(*seed, 0xfa)
		}
		faulty, frep, err := faults.Apply(tr, fcfg)
		if err != nil {
			return err
		}
		rrep, err := faulty.Repair()
		if err != nil {
			return err
		}
		tr = faulty
		fmt.Printf("faults injected: %s\n", frep)
		if rrep.Changed() {
			fmt.Printf("repair: %s\n", rrep)
		}
		sum := tr.Summarize()
		fmt.Printf("degraded units: %.1f%% (%s)\n", 100*tr.DegradedFraction(), sum)
		if tel.manifest != nil {
			tel.manifest.Faults = faultInfo(fcfg, frep, rrep)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Encode(f, outFormat); err != nil {
		return err
	}
	fmt.Printf("%s: %d sampling units (%dM instructions each), oracle CPI %.3f → %s (%s)\n",
		tr.Name(), len(tr.Units), tr.UnitInstr/1_000_000, tr.OracleCPI(), *out, outFormat)
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, 0)
	}
	return tel.finish()
}

// loadTrace reads a trace file in any known format: the format is
// detected from the bytes themselves (magic prefix for binary codecs,
// else gob), so a .bin file renamed to .gob still loads.
func loadTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.DecodeBytes(data)
	if err != nil {
		// The caller handed us a file that is not a trace: that is bad
		// input (exit 3), not an internal failure.
		return nil, resilience.BadInput(fmt.Errorf("load trace %s: %w", path, err))
	}
	return tr, nil
}

// formatForOut picks the trace output format: an explicit -format wins,
// otherwise the extension decides (.bin → bin, else gob). A .json
// output is a usage error rather than a gob file under a JSON name.
func formatForOut(fs *flag.FlagSet, out, format string) (string, error) {
	have := strings.Join(trace.FormatNames(), " ")
	if format == "" {
		switch {
		case strings.HasSuffix(out, ".json"):
			return "", cli.UsageErr(fs, "-out %q: traces are not written as JSON (have: %s)", out, have)
		case strings.HasSuffix(out, ".bin"):
			return "bin", nil
		default:
			return "gob", nil
		}
	}
	for _, name := range trace.FormatNames() {
		if name == format {
			return format, nil
		}
	}
	return "", cli.UsageErr(fs, "unknown -format %q (have: %s)", format, have)
}

// workersFlag registers the shared -workers knob: how many goroutines
// the compute kernels may use. Results are identical for any value.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "worker goroutines for the compute kernels (0 = GOMAXPROCS, 1 = serial)")
}

func formPhases(path string, seed uint64, workers int) (*trace.Trace, *phase.Phases, error) {
	tr, err := loadTrace(path)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	ph, err := core.FormPhases(tr, cfg)
	return tr, ph, err
}

func cmdPhases(args []string) error {
	fs := cli.NewFlagSet("simprof phases")
	path := fs.String("trace", "", "trace file from 'simprof profile'")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := workersFlag(fs)
	tel := telemetryFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return cli.UsageErr(fs, "-trace is required")
	}
	if err := tel.start("phases", args); err != nil {
		return err
	}
	tr, ph, err := formPhases(*path, *seed, *workers)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d units → %d phases (silhouette %.2f)\n\n",
		tr.Name(), len(tr.Units), ph.K, ph.Silhouette)
	t := report.NewTable("", "Phase", "Units", "Weight", "Mean CPI", "CPI CoV", "LLC MPKI", "Type", "Dominant method")
	weights := ph.Weights()
	sizes := ph.Sizes()
	counters := ph.CounterProfile()
	for h := 0; h < ph.K; h++ {
		dom := ""
		if ms := ph.DominantMethods(h, 1); len(ms) > 0 {
			dom = ms[0]
		}
		t.RowS(fmt.Sprint(h), fmt.Sprint(sizes[h]), fmt.Sprintf("%.1f%%", 100*weights[h]),
			fmt.Sprintf("%.2f", counters[h].CPI.Mean), fmt.Sprintf("%.3f", counters[h].CPI.CoV),
			fmt.Sprintf("%.2f", counters[h].LLCMPKI),
			ph.DominantKind(h).String(), dom)
	}
	t.Render(os.Stdout)
	cov := ph.CoV()
	fmt.Printf("CoV of CPI: population %.3f, weighted %.3f, max %.3f\n",
		cov.Population, cov.Weighted, cov.Max)
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, *workers)
		tel.manifest.Phases = phaseInfo(ph)
	}
	return tel.finish()
}

func cmdSample(args []string) error {
	fs := cli.NewFlagSet("simprof sample")
	path := fs.String("trace", "", "trace file")
	n := fs.Int("n", 20, "number of simulation points")
	conf := fs.Float64("confidence", 0.997, "confidence level for the interval")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := workersFlag(fs)
	tel := telemetryFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return cli.UsageErr(fs, "-trace is required")
	}
	if *n <= 0 {
		return cli.UsageErr(fs, "-n must be positive, got %d", *n)
	}
	if err := validateConfidence(fs, *conf); err != nil {
		return err
	}
	if err := tel.start("sample", args); err != nil {
		return err
	}
	tr, ph, err := formPhases(*path, *seed, *workers)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	sp, err := core.SelectPoints(ph, *n, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d simulation points across %d phases\n", tr.Name(), sp.Size(), ph.K)
	fmt.Printf("allocation (Eq. 1): %v\n", sp.Alloc)
	fmt.Printf("estimated CPI: %s   (oracle %.4f, error %.2f%%)\n",
		sp.CI(*conf), tr.OracleCPI(), 100*sp.Err(tr))
	fmt.Printf("bootstrap CI:  %s   (distribution-free cross-check)\n",
		sp.BootstrapCI(*conf, 2000, *seed))
	fmt.Printf("simulation point unit ids: %v\n", sp.UnitIDs)
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, *workers)
		tel.manifest.Phases = phaseInfo(ph)
		tel.manifest.Sampling = samplingInfo(ph, sp, *n, *conf)
	}
	return tel.finish()
}

func cmdPlan(args []string) error {
	fs := cli.NewFlagSet("simprof plan")
	path := fs.String("trace", "", "trace file")
	errTarget := fs.Float64("err", 0.05, "target relative CPI error")
	conf := fs.Float64("confidence", 0.997, "confidence level")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := workersFlag(fs)
	tel := telemetryFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return cli.UsageErr(fs, "-trace is required")
	}
	if *errTarget <= 0 || *errTarget >= 1 {
		return cli.UsageErr(fs, "-err must be in (0,1), got %v", *errTarget)
	}
	if err := validateConfidence(fs, *conf); err != nil {
		return err
	}
	if err := tel.start("plan", args); err != nil {
		return err
	}
	tr, ph, err := formPhases(*path, *seed, *workers)
	if err != nil {
		return err
	}
	nReq, err := sampling.RequiredSampleSize(ph, *errTarget, *conf)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d of %d units needed for ±%.0f%% CPI at %.1f%% confidence\n",
		tr.Name(), nReq, len(tr.Units), 100**errTarget, 100**conf)
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, *workers)
		tel.manifest.Phases = phaseInfo(ph)
	}
	return tel.finish()
}

func cmdCompare(args []string) error {
	fs := cli.NewFlagSet("simprof compare")
	path := fs.String("trace", "", "trace file")
	n := fs.Int("n", 20, "sample size for SRS/SimProf")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := workersFlag(fs)
	tel := telemetryFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *path == "" {
		return cli.UsageErr(fs, "-trace is required")
	}
	if *n <= 0 {
		return cli.UsageErr(fs, "-n must be positive, got %d", *n)
	}
	if err := tel.start("compare", args); err != nil {
		return err
	}
	tr, ph, err := formPhases(*path, *seed, *workers)
	if err != nil {
		return err
	}
	sec, err := sampling.Second(tr, sampling.DefaultSecond())
	if err != nil {
		return err
	}
	srs, err := sampling.SRS(tr, *n, *seed)
	if err != nil {
		return err
	}
	code, err := sampling.Code(ph)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	sp, err := core.SelectPoints(ph, *n, cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("%s — CPI estimates (oracle %.4f)", tr.Name(), tr.OracleCPI()),
		"Approach", "Points", "Est CPI", "Error")
	for _, s := range []sampling.Sample{sec, srs, code, sp.Sample} {
		t.RowS(s.Method, fmt.Sprint(s.Size()), fmt.Sprintf("%.4f", s.EstCPI),
			fmt.Sprintf("%.2f%%", 100*s.Err(tr)))
	}
	t.Render(os.Stdout)
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, *workers)
		tel.manifest.Phases = phaseInfo(ph)
		tel.manifest.Sampling = samplingInfo(ph, sp, *n, cfg.Confidence)
	}
	return tel.finish()
}

func cmdSensitivity(args []string) error {
	fs := cli.NewFlagSet("simprof sensitivity")
	bench := fs.String("bench", "cc", "graph benchmark: cc or rank")
	fw := fs.String("framework", "spark", "framework: spark or hadoop")
	scale := fs.Int("graphscale", 19, "Kronecker scale of the Table II inputs")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := workersFlag(fs)
	tel := telemetryFlags(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *bench != "cc" && *bench != "rank" {
		return cli.UsageErr(fs, "-bench must be cc or rank, got %q", *bench)
	}
	if *fw != "spark" && *fw != "hadoop" {
		return cli.UsageErr(fs, "unknown -framework %q (spark or hadoop)", *fw)
	}
	if err := tel.start("sensitivity", args); err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	opts := workloads.Options{}.WithDefaults()
	inputs := synth.TableIIStats(*scale, *seed+99)
	train, refs := inputs[0], inputs[1:]
	fmt.Printf("training on %s, testing %d reference inputs...\n", train.Name, len(refs))
	tr, err := core.ProfileWorkload(*bench, *fw, train, opts, cfg)
	if err != nil {
		return err
	}
	ph, err := core.FormPhases(tr, cfg)
	if err != nil {
		return err
	}
	rep, err := core.InputSensitivity(*bench, *fw, ph, refs, opts, cfg)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("%s — input sensitivity (threshold %.0f%%)", tr.Name(), 100*rep.Threshold),
		"Phase", "Train CPI", "Sensitive", "Triggering inputs", "Dominant method")
	for h := 0; h < ph.K; h++ {
		var trig []string
		for _, ir := range rep.Inputs {
			if ir.Sensitive[h] {
				trig = append(trig, ir.Input)
			}
		}
		dom := ""
		if ms := ph.DominantMethods(h, 1); len(ms) > 0 {
			dom = ms[0]
		}
		t.RowS(fmt.Sprint(h), fmt.Sprintf("%.2f", rep.Train.Mean[h]),
			fmt.Sprint(rep.Sensitive[h]), strings.Join(trig, ","), dom)
	}
	t.Render(os.Stdout)
	sens, insens := rep.Counts()
	sp, err := core.SelectPoints(ph, 20, cfg)
	if err != nil {
		return err
	}
	kept := rep.SensitivePointFraction(ph, sp.UnitIDs)
	fmt.Printf("%d sensitive, %d insensitive phases; %.0f%% of simulation points can be skipped per reference input\n",
		sens, insens, 100*(1-kept))
	if tel.manifest != nil {
		tel.manifest.Workload = workloadInfo(tr, *seed, *workers)
		tel.manifest.Phases = phaseInfo(ph)
	}
	return tel.finish()
}
