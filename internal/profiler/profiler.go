// Package profiler is SimProf's thread-profiling frontend (§III-A): it
// carves each executor thread's execution into fixed-size sampling
// units, takes periodic call-stack snapshots inside each unit (the
// JVMTI-style collector) and attaches per-unit hardware counters (the
// perf_event-style collector). For Hadoop, whose executor threads live
// only as long as one task, it first merges the threads that ran on the
// same core to mimic a long-running Spark executor thread.
package profiler

import (
	"fmt"
	"slices"
	"sort"

	"simprof/internal/cpu"
	"simprof/internal/model"
	"simprof/internal/trace"
)

// Config controls the sampling manager.
type Config struct {
	UnitInstr     uint64 // sampling unit size in instructions (paper: 100M)
	SnapshotEvery uint64 // call-stack snapshot cadence (paper: 10M)
	MergePerCore  bool   // Hadoop mode: merge task threads per core
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{UnitInstr: 100_000_000, SnapshotEvery: 10_000_000}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.UnitInstr == 0 {
		return fmt.Errorf("profiler: UnitInstr must be positive")
	}
	if c.SnapshotEvery == 0 || c.SnapshotEvery > c.UnitInstr {
		return fmt.Errorf("profiler: SnapshotEvery=%d must be in (0, UnitInstr=%d]",
			c.SnapshotEvery, c.UnitInstr)
	}
	return nil
}

// Collect builds a trace from a machine run. The returned trace has no
// Benchmark/Framework/Input metadata; callers fill those in.
func Collect(res cpu.Result, table *model.Table, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	streams := buildStreams(res, cfg.MergePerCore)
	t := &trace.Trace{
		UnitInstr:     cfg.UnitInstr,
		SnapshotEvery: cfg.SnapshotEvery,
		Methods:       table.Methods(),
	}
	for ti, recs := range streams {
		sliceUnits(t, ti, recs, cfg)
	}
	return t, nil
}

// buildStreams turns the machine result into the profiled execution
// streams: one per executor thread (Spark) or one per core (Hadoop).
func buildStreams(res cpu.Result, mergePerCore bool) [][]cpu.SegExec {
	if !mergePerCore {
		out := make([][]cpu.SegExec, 0, len(res.Threads))
		for _, te := range res.Threads {
			out = append(out, te.Exec)
		}
		return out
	}
	byCore := map[int][]cpu.ThreadExec{}
	for _, te := range res.Threads {
		byCore[te.Core] = append(byCore[te.Core], te)
	}
	coreIDs := make([]int, 0, len(byCore))
	for c := range byCore {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)
	var out [][]cpu.SegExec
	for _, c := range coreIDs {
		tes := byCore[c]
		// Order the core's task threads by when they started running.
		sort.SliceStable(tes, func(i, j int) bool {
			return firstStart(tes[i]) < firstStart(tes[j])
		})
		var merged []cpu.SegExec
		for _, te := range tes {
			merged = append(merged, te.Exec...)
		}
		out = append(out, merged)
	}
	return out
}

func firstStart(te cpu.ThreadExec) uint64 {
	if len(te.Exec) == 0 {
		return ^uint64(0)
	}
	return te.Exec[0].StartCycle
}

// sliceUnits carves one execution stream into sampling units and
// appends them to t as thread thread, with their snapshots and stages
// appended to t's columns. Counters of segments spanning a unit boundary
// are prorated by instruction count; the trailing partial unit is
// discarded with its column entries (the paper uses fixed-size units
// only).
func sliceUnits(t *trace.Trace, thread int, recs []cpu.SegExec, cfg Config) {
	cur := trace.Unit{Thread: thread}
	var curInstr uint64                 // instructions in the current unit
	var fCycles, fL1, fL2, fLLC float64 // prorated counter accumulators
	var threadInstr uint64              // absolute instructions on this stream
	nextSnap := cfg.SnapshotEvery       // absolute instr position of next snapshot
	started := false
	// The column lengths at the current unit's start.
	nFrames, nStacks, nStages := len(t.Frames), len(t.FrameOff), len(t.StageIDs)

	flush := func() {
		cur.ID = len(t.Units)
		cur.Counters = trace.Counters{
			Instructions: curInstr,
			Cycles:       uint64(fCycles),
			L1Misses:     uint64(fL1),
			L2Misses:     uint64(fL2),
			LLCMisses:    uint64(fLLC),
		}
		slices.Sort(t.StageIDs[nStages:])
		cur.Stages = trace.Span{Lo: uint32(nStages), Hi: uint32(len(t.StageIDs))}
		t.Units = append(t.Units, cur)
		cur = trace.Unit{Thread: thread, Index: cur.Index + 1}
		curInstr, fCycles, fL1, fL2, fLLC = 0, 0, 0, 0, 0
		started = false
		nFrames, nStacks, nStages = len(t.Frames), len(t.FrameOff), len(t.StageIDs)
	}

	for _, rec := range recs {
		segLeft := rec.Seg.Instr
		for segLeft > 0 {
			if !started {
				frac := float64(rec.Seg.Instr-segLeft) / float64(rec.Seg.Instr)
				cur.StartCycle = rec.StartCycle + uint64(frac*float64(rec.Cycles))
				started = true
			}
			take := cfg.UnitInstr - curInstr
			if segLeft < take {
				take = segLeft
			}
			frac := float64(take) / float64(rec.Seg.Instr)
			fCycles += frac * float64(rec.Cycles)
			fL1 += frac * float64(rec.L1Misses)
			fL2 += frac * float64(rec.L2Misses)
			fLLC += frac * float64(rec.LLCMisses)
			if stage := int32(rec.Seg.StageID); !slices.Contains(t.StageIDs[nStages:], stage) {
				t.StageIDs = append(t.StageIDs, stage)
			}

			// Snapshots that land inside this span observe this
			// segment's stack.
			spanEnd := threadInstr + take
			for nextSnap <= spanEnd {
				t.AppendSnapshot(&cur, rec.Seg.Stack)
				nextSnap += cfg.SnapshotEvery
			}

			threadInstr = spanEnd
			curInstr += take
			segLeft -= take
			if curInstr == cfg.UnitInstr {
				flush()
			}
		}
	}
	t.Frames, t.FrameOff, t.StageIDs = t.Frames[:nFrames], t.FrameOff[:nStacks], t.StageIDs[:nStages]
}
