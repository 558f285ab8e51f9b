// Package core is SimProf's top-level pipeline (Fig. 2): thread
// profiling of a workload on the simulated machine, phase formation,
// phase sampling, and the input sensitivity test, behind one
// configuration struct. It is the API the cmd tools, the examples and
// the experiment harness all drive.
//
// Typical use:
//
//	cfg := core.DefaultConfig()
//	tr, _ := core.ProfileWorkload("wc", "spark", input, wopts, cfg)
//	ph, _ := core.FormPhases(tr, cfg)
//	sp, _ := core.SelectPoints(ph, 20, cfg)
//	fmt.Println(sp.EstCPI, sp.CI(0.997))
package core

import (
	"context"
	"fmt"

	"simprof/internal/cpu"
	"simprof/internal/obs"
	"simprof/internal/phase"
	"simprof/internal/profiler"
	"simprof/internal/sampling"
	"simprof/internal/sensitivity"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/trace"
	"simprof/internal/workloads"
)

// Config carries the knobs of the whole pipeline.
type Config struct {
	Machine  cpu.Config
	Profiler profiler.Config
	Phase    phase.Options
	// Confidence is the level used for reported intervals (paper: 0.997).
	Confidence float64
	Seed       uint64
	// Workers bounds the concurrency of the compute kernels (phase
	// formation's k sweep, k-means restarts, silhouette passes and the
	// experiment driver). 0 selects GOMAXPROCS; 1 runs serially. Every
	// setting yields bit-for-bit identical results — the knob trades
	// wall clock, never reproducibility.
	Workers int
}

// DefaultConfig mirrors the paper's setup at the repository's scaled-
// down unit size (10M-instruction units, 1M-instruction snapshots —
// a 1:10 scale of the paper's 100M/10M; populations keep the same
// shape at a fraction of the wall-clock cost).
func DefaultConfig() Config {
	m := cpu.DefaultConfig()
	return Config{
		Machine: m,
		Profiler: profiler.Config{
			UnitInstr:     10_000_000,
			SnapshotEvery: 1_000_000,
		},
		Phase:      phase.Options{},
		Confidence: 0.997,
		Seed:       1,
	}
}

// ProfileWorkload builds a Table I workload on a framework, executes it
// on the simulated machine and collects the profiling trace. Hadoop
// traces are merged per core automatically (§III-A).
func ProfileWorkload(bench, framework string, in synth.InputStats, wopts workloads.Options, cfg Config) (*trace.Trace, error) {
	_, span := obs.StartSpan(context.Background(), "core.profile "+bench+"_"+framework)
	defer span.End()
	wopts.Seed = cfg.Seed
	threads, table, err := workloads.Build(bench, framework, in, wopts)
	if err != nil {
		return nil, fmt.Errorf("core: build %s_%s: %w", bench, framework, err)
	}
	mcfg := cfg.Machine
	mcfg.Seed = stats.SplitSeed(cfg.Seed, 0x3ac1)
	machine, err := cpu.NewMachine(mcfg)
	if err != nil {
		return nil, err
	}
	res, err := machine.Run(threads)
	if err != nil {
		return nil, fmt.Errorf("core: run %s_%s: %w", bench, framework, err)
	}
	pcfg := cfg.Profiler
	pcfg.MergePerCore = framework == "hadoop"
	tr, err := profiler.Collect(res, table, pcfg)
	if err != nil {
		return nil, fmt.Errorf("core: profile %s_%s: %w", bench, framework, err)
	}
	tr.Benchmark = bench
	tr.Framework = framework
	tr.Input = in.Name
	tr.Seed = cfg.Seed
	return tr, nil
}

// FormPhases runs phase formation on a trace.
func FormPhases(tr *trace.Trace, cfg Config) (*phase.Phases, error) {
	return FormPhasesCtx(context.Background(), tr, cfg)
}

// FormPhasesCtx is FormPhases under a context: once ctx ends the
// formation kernels stop claiming work and the context error is
// returned (see phase.FormCtx).
func FormPhasesCtx(ctx context.Context, tr *trace.Trace, cfg Config) (*phase.Phases, error) {
	opts := cfg.Phase
	if opts.Seed == 0 {
		opts.Seed = stats.SplitSeed(cfg.Seed, 0xc1)
	}
	if opts.Workers == 0 {
		opts.Workers = cfg.Workers
	}
	return phase.FormCtx(ctx, tr, opts)
}

// SelectPoints draws SimProf's stratified sample of n simulation points.
func SelectPoints(ph *phase.Phases, n int, cfg Config) (sampling.Stratified, error) {
	return sampling.SimProf(ph, n, stats.SplitSeed(cfg.Seed, 0x5e1))
}

// InputSensitivity profiles each reference input with the same workload
// and runs the input sensitivity test against the training phases.
func InputSensitivity(bench, framework string, ph *phase.Phases, refs []synth.InputStats, wopts workloads.Options, cfg Config) (*sensitivity.Report, error) {
	var traces []*trace.Trace
	for _, in := range refs {
		tr, err := ProfileWorkload(bench, framework, in, wopts, cfg)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return sensitivity.Test(ph, traces, sensitivity.DefaultThreshold)
}
