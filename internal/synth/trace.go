package synth

import (
	"fmt"

	"simprof/internal/model"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// TraceSpec describes a synthetic profiling trace with planted phase
// structure: units cycle through a configurable number of latent phases,
// each phase executing its own disjoint hot set of methods at its own
// characteristic CPI. The result is a valid trace (it passes
// trace.Validate with every unit fully observed) whose phases are
// recoverable by phase formation — the workload shape the paper's
// pipeline expects, without running an engine simulation. datagen uses
// it to materialize format-conversion fixtures, and the tracebin
// benchmarks use it to build 100k-unit inputs deterministically.
type TraceSpec struct {
	Benchmark string
	Framework string // "spark" or "hadoop"
	Input     string
	Units     int
	Methods   int // interned table size
	Phases    int // latent phases planted in the unit sequence
	Depth     int // frames per snapshot
	Snapshots int // snapshots per unit (sets the cadence)
	UnitInstr uint64
	Seed      uint64
}

// DefaultTrace returns a spec sized like the paper's workloads scaled to
// the unit count: a few hundred methods, four phases, moderate stacks.
func DefaultTrace(units int, seed uint64) TraceSpec {
	return TraceSpec{
		Benchmark: "synth",
		Framework: "spark",
		Input:     "synthetic",
		Units:     units,
		Methods:   256,
		Phases:    4,
		Depth:     8,
		Snapshots: 10,
		UnitInstr: 100_000_000,
		Seed:      seed,
	}
}

// Validate checks the spec.
func (s TraceSpec) Validate() error {
	if s.Units <= 0 {
		return fmt.Errorf("synth: Units=%d must be positive", s.Units)
	}
	if s.Phases <= 0 || s.Phases > s.Units {
		return fmt.Errorf("synth: Phases=%d must be in [1, Units=%d]", s.Phases, s.Units)
	}
	if s.Depth <= 0 {
		return fmt.Errorf("synth: Depth=%d must be positive", s.Depth)
	}
	if s.Snapshots <= 0 || uint64(s.Snapshots) > s.UnitInstr {
		return fmt.Errorf("synth: Snapshots=%d must be in [1, UnitInstr=%d]", s.Snapshots, s.UnitInstr)
	}
	if s.UnitInstr == 0 {
		return fmt.Errorf("synth: UnitInstr must be positive")
	}
	// Each phase needs at least one hot method beyond the shared stack
	// prefix, and the prefix itself needs Depth-1 methods.
	if s.Methods < s.Depth-1+s.Phases {
		return fmt.Errorf("synth: Methods=%d too small for Depth=%d and Phases=%d", s.Methods, s.Depth, s.Phases)
	}
	return nil
}

// Generate materializes the trace. Output is deterministic for a spec.
func (s TraceSpec) Generate() (*trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(stats.SplitSeed(s.Seed, 0xbead))

	t := &trace.Trace{
		Benchmark:     s.Benchmark,
		Framework:     s.Framework,
		Input:         s.Input,
		Seed:          s.Seed,
		UnitInstr:     s.UnitInstr,
		SnapshotEvery: s.UnitInstr / uint64(s.Snapshots),
	}

	// Method table: the first Depth-1 ids are the shared framework prefix
	// every stack walks through (think scheduler → executor → task); the
	// rest are partitioned cyclically into per-phase hot sets.
	t.Methods = make([]model.Method, s.Methods)
	for i := range t.Methods {
		role := "work"
		if i < s.Depth-1 {
			role = "frame"
		}
		t.Methods[i] = model.Method{
			ID:    model.MethodID(i),
			Class: fmt.Sprintf("synth.%s.C%03d", role, i/16),
			Name:  fmt.Sprintf("m%04d", i),
			Kind:  model.Kind(i % model.NumKinds),
		}
	}
	prefix := s.Depth - 1
	hot := make([][]model.MethodID, s.Phases)
	for id := prefix; id < s.Methods; id++ {
		p := (id - prefix) % s.Phases
		hot[p] = append(hot[p], model.MethodID(id))
	}

	perUnit := t.ExpectedSnapshots()
	nFrames := s.Units * perUnit * s.Depth
	frames := make([]model.MethodID, 0, nFrames)
	offs := make([]uint32, 1, s.Units*perUnit+1) // frame offsets, SPTB-style
	stages := make([]int32, 0, s.Units)

	t.Units = make([]trace.Unit, s.Units)
	var startCycle uint64
	for i := range t.Units {
		u := &t.Units[i]
		phase := i * s.Phases / s.Units
		u.ID = i
		u.Thread = 0
		u.Index = i

		// Counters: each phase runs at its own CPI with mild log-normal
		// jitter, and miss rates scale with how memory-bound the phase is.
		cpi := stats.LogNormal(rng, 0.7+0.45*float64(phase), 0.06)
		u.Counters.Instructions = s.UnitInstr
		u.Counters.Cycles = uint64(cpi * float64(s.UnitInstr))
		u.Counters.L1Misses = uint64(float64(s.UnitInstr) * 0.02 * cpi)
		u.Counters.L2Misses = u.Counters.L1Misses / 4
		u.Counters.LLCMisses = u.Counters.L2Misses / 8
		u.StartCycle = startCycle
		startCycle += u.Counters.Cycles

		// Snapshots: shared prefix + a skewed draw from the phase's hot
		// set (squaring the uniform biases toward the set's head, giving
		// each phase a stable dominant method mix).
		s0 := uint32(len(offs) - 1)
		hs := hot[phase]
		for k := 0; k < perUnit; k++ {
			for d := 0; d < prefix; d++ {
				frames = append(frames, model.MethodID(d))
			}
			r := rng.Float64()
			frames = append(frames, hs[int(r*r*float64(len(hs)))])
			offs = append(offs, uint32(len(frames)))
		}
		u.Snapshots = trace.Span{Lo: s0, Hi: uint32(len(offs) - 1)}
		u.Stages = trace.Span{Lo: uint32(len(stages)), Hi: uint32(len(stages) + 1)}
		stages = append(stages, int32(phase))
	}
	t.Frames, t.FrameOff, t.StageIDs = frames, offs, stages
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated trace invalid: %w", err)
	}
	return t, nil
}
