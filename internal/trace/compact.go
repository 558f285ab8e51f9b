package trace

import (
	"slices"

	"simprof/internal/matrix"
	"simprof/internal/model"
	"simprof/internal/obs"
)

// Compaction telemetry: how many traces were repacked and how many
// heap objects the arenas collapsed.
var (
	obsCompacts = obs.NewCounter("trace.compacts",
		"traces repacked into shared slice arenas after decode")
	obsCompactFrames = obs.NewCounter("trace.compact_frames",
		"snapshot frames moved into the shared frame arena")
)

// Compact repacks the trace's per-unit slice data — snapshot frames,
// snapshot lists and stage lists — into three shared arenas. A
// gob-decoded million-unit trace otherwise holds one small heap object
// per snapshot per unit (pointer-heavy, GC-hostile, cache-hostile); after
// Compact the same data lives in three contiguous allocations and every
// unit's slices are views into them. Contents are bit-identical (nil
// slices stay nil, so a re-encode is byte-for-byte the original), only
// the backing memory changes. The decode paths call this automatically;
// it is exported for hand-built traces headed into the hot pipeline.
//
// The arena views are disjoint, so in-place writes confined to one
// unit's own slices remain safe; code that grows a slice reallocates as
// usual and simply leaves the arena.
func (t *Trace) Compact() {
	var nStacks, nFrames, nStages int
	for i := range t.Units {
		u := &t.Units[i]
		nStacks += len(u.Snapshots)
		for _, snap := range u.Snapshots {
			nFrames += len(snap)
		}
		nStages += len(u.Stages)
	}
	// Exact capacities: the appends below must never reallocate, or the
	// views handed out earlier would be left pointing at abandoned
	// backing arrays (still correct, but no longer an arena).
	stacks := make([]model.Stack, 0, nStacks)
	frames := make([]model.MethodID, 0, nFrames)
	stages := make([]int, 0, nStages)
	for i := range t.Units {
		u := &t.Units[i]
		if len(u.Snapshots) > 0 {
			s0 := len(stacks)
			for _, snap := range u.Snapshots {
				if len(snap) == 0 {
					stacks = append(stacks, snap) // preserve nil vs empty
					continue
				}
				f0 := len(frames)
				frames = append(frames, snap...)
				stacks = append(stacks, frames[f0:len(frames):len(frames)])
			}
			u.Snapshots = stacks[s0:len(stacks):len(stacks)]
		}
		if len(u.Stages) > 0 {
			g0 := len(stages)
			stages = append(stages, u.Stages...)
			u.Stages = stages[g0:len(stages):len(stages)]
		}
	}
	obsCompacts.Inc()
	obsCompactFrames.Add(int64(nFrames))
}

// CountMethods returns the trace's per-unit method-frequency matrix
// (§III-B step 2): rows are units, columns are method ids, and cell
// (u, id) holds the number of stack frames in unit u's snapshots that
// refer to method id. Columns ascend within each row and only touched
// methods are stored. Frames whose id lies outside the method table
// (possible only in a trace that skipped Validate) are not counted.
//
// Every count is an exact integer in float64, so the order of the
// increments cannot change a bit. This is the one place the counts are
// built: the tracebin encoder writes this matrix, and phase formation
// and the sensitivity test project it. It always counts from the
// snapshots and never returns the decoder-attached Freq.
func (t *Trace) CountMethods() *matrix.Sparse {
	m := len(t.Methods)
	b := matrix.NewSparseBuilder(m, len(t.Units), 8*len(t.Units))
	counts := make([]float64, m) // scratch: zero ⇔ untouched this unit
	touched := make([]int32, 0, 64)
	vals := make([]float64, 0, 64)
	for i := range t.Units {
		touched = touched[:0]
		for _, snap := range t.Units[i].Snapshots {
			for _, id := range snap {
				if id < 0 || int(id) >= m {
					continue
				}
				if counts[id] == 0 {
					touched = append(touched, int32(id))
				}
				counts[id]++
			}
		}
		slices.Sort(touched)
		vals = vals[:0]
		for _, id := range touched {
			vals = append(vals, counts[id])
			counts[id] = 0
		}
		b.AppendRow(touched, vals)
	}
	return b.Build()
}

// freq is the per-unit method-frequency matrix attached by a columnar
// decoder: CountMethods as the encoder computed it. It is unexported so
// the gob/JSON codecs never serialize it; it rides along in memory only.

// SetFreq attaches a pre-computed method-frequency matrix (rows =
// units, cols = methods). Decoders that materialize or adopt the matrix
// call this so phase formation can skip vectorization.
func (t *Trace) SetFreq(f *matrix.Sparse) { t.freq = f }

// Freq returns the attached method-frequency matrix, or nil when the
// trace was not decoded from a columnar format. Callers must treat it
// as read-only and verify its dimensions against the trace before
// adopting it.
func (t *Trace) Freq() *matrix.Sparse { return t.freq }
