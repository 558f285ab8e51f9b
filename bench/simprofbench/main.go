// Command simprofbench is SimProf's end-to-end benchmark. It runs
// one named workload from one process, checks that every output is
// correct, writes a result file and prints every metric with its unit;
// the last line of standard output is a JSON summary.
//
//	simprofbench -workload offline-1m -seed 1 -seconds 20 -trace 0 \
//	    -simprofd PATH -workdir DIR
//	simprofbench compare A.json... vs B.json...
//
// A run writes its result file to DIR/results. compare reads the bounds
// from BENCHMARK.json in the working directory (the checkout root).
//
// Workloads (see bench/README.md for why each exists):
//
//	offline-1m     one client profiling a 1M-unit SPTB trace in process
//	offline-paper  one client profiling the 12 Table I traces in process,
//	               the paper's settings
//	serve-cold     simprofd over HTTP, every upload a cache miss, on a
//	               2000-record history
//	serve-mixed    simprofd over HTTP, 90% repeats of a warmed hot set
//
// Inputs derive from -seed alone: the 1M-unit trace, profile seeds,
// request schedules and the preseeded history. The 12 Table I traces
// are the experiment suite's own, the same for every seed.
//
// -trace 1 runs the traced variant, which prints the per-layer ledger
// instead of the end-to-end metrics. The serve workloads need the
// simprofd binary built from the same commit (bench/run.sh builds both).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"simprof/internal/obs"
	"simprof/internal/phase"
)

// workloadNames are the benchmark's workloads, in run order.
var workloadNames = []string{"offline-1m", "offline-paper", "serve-cold", "serve-mixed"}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	smoke    bool // about 1/50 size, for the smoke test
	simprofd string
	runDir   string // the run's own directory for its history and logs
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare("BENCHMARK.json", os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "simprofbench compare: %v\n", err)
			os.Exit(2)
		}
		return
	}
	rc, workdir, err := parseRun(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "simprofbench: %v\n", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		children.stopAll()
		os.RemoveAll(rc.runDir)
		os.Exit(130)
	}()
	res, err := execute(rc)
	os.RemoveAll(rc.runDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simprofbench: %s: %v\n", rc.workload, err)
		os.Exit(2)
	}
	path, err := writeResult(filepath.Join(workdir, "results"), res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simprofbench: write result: %v\n", err)
		os.Exit(2)
	}
	printResult(os.Stdout, res, path)
	if !res.Correct {
		os.Exit(1)
	}
}

// parseRun parses a run's flags and creates its run directory under the
// returned work directory.
func parseRun(args []string) (runConfig, string, error) {
	fs := flag.NewFlagSet("simprofbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: offline-1m, offline-paper, serve-cold or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer ledger")
	simprofd := fs.String("simprofd", "", "simprofd binary built from the commit under test (serve workloads)")
	workdir := fs.String("workdir", ".bench_build", "directory for run files and results")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, "", err
	}
	rc := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, simprofd: *simprofd}
	switch {
	case fs.NArg() > 0:
		return rc, "", fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case !validWorkload(rc.workload):
		return rc, "", fmt.Errorf("-workload %q: want one of %v", rc.workload, workloadNames)
	case *seconds <= 0:
		return rc, "", errors.New("-seconds must be positive")
	case *trace != 0 && *trace != 1:
		return rc, "", fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case isServe(rc.workload) && rc.simprofd == "":
		return rc, "", errors.New("serve workloads need -simprofd")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return rc, "", err
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+rc.workload+"-")
	if err != nil {
		return rc, "", err
	}
	rc.runDir = dir
	return rc, *workdir, nil
}

func validWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

func isServe(name string) bool { return name == "serve-cold" || name == "serve-mixed" }

// execute generates the workload's inputs from the seed (untimed), runs
// it and judges its outputs.
func execute(rc runConfig) (*Result, error) {
	build := obs.CurrentBuild()
	res := &Result{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds.Seconds(), Traced: rc.traced,
		Scale: "full", Revision: build.Revision, Modified: build.Modified, GoVersion: build.GoVersion,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Started: time.Now().UTC().Format(time.RFC3339),
	}
	if rc.smoke {
		res.Scale = "smoke"
	}
	r := newReport()
	var err error
	switch rc.workload {
	case "offline-1m":
		units := 1_000_000
		if rc.smoke {
			units = 20_000
		}
		var in input
		if in, err = millionInput(rc.seed, units); err != nil {
			return nil, err
		}
		// 30 profiles fit in a 20 s run on the 2-vCPU box (about 650 ms
		// each); a slower host runs longer rather than measure fewer.
		w := offlineWorkload{
			inputs: []input{in},
			opts:   phase.Options{TopK: 6, MaxPhases: 4, Restarts: 1, MaxIter: 25},
			n:      40, digestOps: 8, qualityOps: 30,
		}
		if rc.smoke {
			w.qualityOps = 8
		}
		res.Attempted, res.Failed = runOffline(rc, w, r)
	case "offline-paper":
		var ins []input
		if ins, err = tableIInputs("bin"); err != nil {
			return nil, err
		}
		// 40 rounds of the 12 traces, about half of a 20 s run.
		w := offlineWorkload{inputs: ins, n: 20, digestOps: 96, qualityOps: 480}
		if rc.smoke {
			w.qualityOps = 24
		}
		res.Attempted, res.Failed = runOffline(rc, w, r)
	default:
		var ups []input
		if ups, err = tableIInputs("gob"); err != nil {
			return nil, err
		}
		// None of these is a recorded traffic mix; bench/README.md gives
		// the reason for each. 4 req/s keeps serve-cold's CPUs about 30%
		// busy, so misses rarely queue behind each other even when the
		// host loses a third of its CPU time. The 2000-record history is a store
		// size chosen to show the O(records) append. serve-mixed draws 9
		// requests in 10 from a hot set built like BenchmarkSimprofdStorm's
		// catalog, 4 seeds of each trace, so the median is a hit and the
		// tail percentile a miss. At 3 misses/s a pipeline runs under a
		// third of the time, so most hits never overlap one and the median
		// stays on the hit path; its closed loop gets half the run, since
		// its throughput depends on which misses fall in it.
		w := serveWorkload{uploads: ups, n: 20, warmups: 1, replays: 36, preseed: 2000, openRate: 4, openShare: 0.75}
		if rc.workload == "serve-mixed" {
			w.preseed, w.hotKeys, w.openRate, w.openShare = 0, 4*len(ups), 30, 0.5
		}
		if rc.smoke {
			w.preseed, w.hotKeys, w.replays = w.preseed/50, w.hotKeys/4, 12
		}
		if res.Attempted, res.Failed, err = runServe(rc, w, r); err != nil {
			return nil, err
		}
	}
	r.finish(res)
	return res, nil
}

// printResult prints the checks and metrics for a reader, then the
// digest, then the JSON summary as the last line.
func printResult(w io.Writer, res *Result, path string) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "# %s seed=%d %gs %s (%d CPUs, GOMAXPROCS=%d, rev %s)\n",
		res.Workload, res.Seed, res.Seconds, mode, res.NumCPU, res.GOMAXPROCS, res.Revision)
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", mark, c.Name, c.Detail)
	}
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-30s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# digest %s over %d outputs\n", res.Digest, res.DigestOps)
	fmt.Fprintf(w, "# result %s\n", path)
	line, _ := json.Marshal(summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Fprintln(w, string(line))
}
