// Package trace defines the on-disk and in-memory representation of a
// profiling run: the sampling units (the paper's 100M-instruction
// intervals) with their call-stack snapshots and hardware counters, plus
// the interned method table needed to interpret them. Traces serialize
// to gob; binary formats register themselves (see RegisterFormat).
//
// A trace is a table of rows plus three columns that mirror the
// columnar format's sections. Each Unit is a pointer-free row (ids,
// counters, quality) whose snapshots and stages are index spans into
// trace-level columns:
//
//   - Frames holds every snapshot's method ids back to back;
//   - FrameOff holds the stack offsets: stack k is
//     Frames[FrameOff[k]:FrameOff[k+1]];
//   - StageIDs holds the engine stage ids.
//
// Unit i's snapshots are stacks [Snapshots.Lo, Snapshots.Hi), read
// through t.Snapshots(i) as one CSR view (Len, At); its stages are
// StageIDs[Stages.Lo:Stages.Hi], read through t.Stages(i). A million-unit
// trace's rows are then one flat allocation the garbage collector never
// scans, and code that moves rows (Repair's reorder and dedup, the fault
// injector's crash, duplicate and displace) moves the spans with them.
// Spans need not follow unit order, may share stacks and may leave
// column entries unreferenced. Validate checks the span invariants: a
// span is not inverted and ends inside its column; a snapshot span's
// stack offsets never decrease and end inside Frames.
//
// The producers (profiler, synth) append rows and columns in unit order;
// AppendSnapshot adds one snapshot to the unit being built. Edits of the
// snapshots rebuild the frame columns in one pass. The columnar decoder (internal/tracebin)
// adopts its frame, frame-offset and stage sections as the columns
// without copying, so they may alias the input buffer: never write
// through them. Gob encodes the columns as plain arrays; gob traces
// written before this layout, which carried slices per unit, no longer
// decode.
package trace

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"simprof/internal/matrix"
	"simprof/internal/model"
	"simprof/internal/obs"
)

// Decode/validate telemetry: how many traces crossed the trust boundary
// and how many were rejected there.
var (
	obsDecodes = obs.NewCounter("trace.decodes",
		"traces decoded successfully from gob")
	obsDecodeErrors = obs.NewCounter("trace.decode_errors",
		"trace decodes rejected (malformed bytes or failed validation)")
)

// Counters are the per-unit hardware counter values the profiler's
// perf_event-like collector reads.
type Counters struct {
	Instructions uint64
	Cycles       uint64
	L1Misses     uint64
	L2Misses     uint64
	LLCMisses    uint64
}

// CPI returns cycles per instruction (0 for an empty unit).
func (c Counters) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Instructions)
}

// IPC returns instructions per cycle (0 for an empty unit).
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.Instructions += o.Instructions
	c.Cycles += o.Cycles
	c.L1Misses += o.L1Misses
	c.L2Misses += o.L2Misses
	c.LLCMisses += o.LLCMisses
}

// Unit is one sampling unit: a fixed-length instruction interval within
// one (possibly merged) executor thread, carrying its counters and the
// spans of its call-stack snapshots and engine stages in the trace's
// columns. It holds no pointer.
type Unit struct {
	ID         int // dense id within the trace
	Thread     int // profiled (merged) thread index
	Index      int // position within that thread
	StartCycle uint64
	Counters   Counters
	Snapshots  Span    // stacks of Trace.FrameOff, one per snapshot interval
	Stages     Span    // entries of Trace.StageIDs (sorted, unique)
	Quality    Quality // degradation flags (OK for a pristine unit)
}

// Span is the half-open index range [Lo, Hi) of a unit's entries in one
// of its trace's columns.
type Span struct{ Lo, Hi uint32 }

// Len returns the number of entries (negative for an inverted span,
// which Validate rejects).
func (s Span) Len() int { return int(s.Hi) - int(s.Lo) }

// Snapshots is one unit's call-stack snapshots as a CSR view of the
// trace's columns: snapshot j is Frames[Off[j]-Off[0] : Off[j+1]-Off[0]],
// so Frames is the unit's frames in snapshot order and Off has one entry
// more than there are snapshots (none for a unit without snapshots). Off
// keeps the column's absolute offsets, so every reader subtracts Off[0].
// Both slices are read-only views (see Trace.Snapshots).
type Snapshots struct {
	Frames []model.MethodID
	Off    []uint32
}

// Len returns the number of snapshots.
func (s Snapshots) Len() int {
	if len(s.Off) == 0 {
		return 0
	}
	return len(s.Off) - 1
}

// At returns snapshot j as a view into Frames (read-only).
func (s Snapshots) At(j int) model.Stack {
	a, b := s.Off[j]-s.Off[0], s.Off[j+1]-s.Off[0]
	return model.Stack(s.Frames[a:b:b])
}

// CPI is shorthand for u.Counters.CPI().
func (u *Unit) CPI() float64 { return u.Counters.CPI() }

// Trace is a full profiling run of one workload on one input.
type Trace struct {
	Benchmark string
	Framework string // "spark" or "hadoop"
	Input     string
	Seed      uint64

	UnitInstr     uint64 // sampling unit size (paper: 100M)
	SnapshotEvery uint64 // snapshot cadence (paper: 10M)

	Methods []model.Method // interned table, id-ordered
	Units   []Unit

	// The columns the units' spans index (see the package doc).
	Frames   []model.MethodID // snapshot frames, stack after stack
	FrameOff []uint32         // stack k is Frames[FrameOff[k]:FrameOff[k+1]]
	StageIDs []int32          // engine stage ids

	// freq is the per-unit method-frequency matrix a columnar decoder
	// attached (see SetFreq/Freq in counts.go). Unexported: it is an
	// in-memory acceleration handle, never serialized.
	freq *matrix.Sparse
}

// Snapshots returns unit i's snapshots as a CSR view of the frame
// columns. The view is read-only: it may alias a decoded input buffer.
// On a trace that skipped Validate it may panic.
func (t *Trace) Snapshots(i int) Snapshots {
	s := t.Units[i].Snapshots
	if s.Lo >= s.Hi {
		return Snapshots{}
	}
	a, b := t.FrameOff[s.Lo], t.FrameOff[s.Hi]
	return Snapshots{Frames: t.Frames[a:b:b], Off: t.FrameOff[s.Lo : s.Hi+1 : s.Hi+1]}
}

// Stages returns unit i's engine stage ids, a read-only view of StageIDs.
func (t *Trace) Stages(i int) []int32 {
	s := t.Units[i].Stages
	return t.StageIDs[s.Lo:s.Hi:s.Hi]
}

// AppendSnapshot appends a copy of stack to the frame columns as the
// next snapshot of u, the unit being built: rows and columns are
// appended in unit order, so u's snapshot span must be empty (it then
// starts at the columns' end) or end at the last stack. A decoded
// column is capped at its length, so the append never writes into the
// input buffer.
func (t *Trace) AppendSnapshot(u *Unit, stack model.Stack) {
	if len(t.FrameOff) == 0 {
		t.FrameOff = append(t.FrameOff, 0)
	}
	end := uint32(len(t.FrameOff) - 1)
	if u.Snapshots.Len() <= 0 {
		u.Snapshots = Span{end, end}
	} else if u.Snapshots.Hi != end {
		panic("trace: AppendSnapshot to a unit whose snapshots do not end the columns")
	}
	t.Frames = append(t.Frames, stack...)
	t.FrameOff = append(t.FrameOff, uint32(len(t.Frames)))
	u.Snapshots.Hi++
}

// UnitRange returns a read-only view of units [lo, hi): a trace that
// shares t's header, method table and columns and whose Units is
// t.Units[lo:hi]. The shared slices are capped, so an append to the view
// never writes into t. The units keep their ids in t, so the view is no
// valid trace on its own; it serves the per-unit readers (Snapshots,
// CountMethods, FeatureSpace.VectorizeSparse) on a chunk of t. It
// carries no frequency matrix.
func (t *Trace) UnitRange(lo, hi int) *Trace {
	v := *t
	v.Units = t.Units[lo:hi:hi]
	v.Methods = slices.Clip(t.Methods)
	v.Frames = slices.Clip(t.Frames)
	v.FrameOff = slices.Clip(t.FrameOff)
	v.StageIDs = slices.Clip(t.StageIDs)
	v.freq = nil
	return &v
}

// Name returns "benchmark_fw" in the paper's abbreviation style
// (e.g. "wc_sp").
func (t *Trace) Name() string {
	suffix := map[string]string{"spark": "sp", "hadoop": "hp"}[t.Framework]
	if suffix == "" {
		suffix = t.Framework
	}
	return t.Benchmark + "_" + suffix
}

// Table reconstructs a model.Table from the serialized methods. It
// returns an error (instead of the historical panic) when the table is
// not id-ordered — decoded traces are validated, so this only fires on
// hand-built traces that skipped Validate/Repair.
func (t *Trace) Table() (*model.Table, error) {
	tbl := model.NewTable()
	for _, m := range t.Methods {
		id := tbl.Intern(m.Class, m.Name, m.Kind)
		if id != m.ID {
			return nil, fmt.Errorf("trace: method table not id-ordered (%d != %d)", id, m.ID)
		}
	}
	return tbl, nil
}

// CPIs returns the CPI of every measured unit, in unit order — the
// population the sampling approaches draw from. Units whose counters
// were lost (zero instructions or a CountersMissing flag) are excluded:
// their CPI is unknown, not 0, and including them as 0 would bias the
// oracle mean and every σ computed from the population.
func (t *Trace) CPIs() []float64 {
	out := make([]float64, 0, len(t.Units))
	for i := range t.Units {
		if u := &t.Units[i]; u.CPIValid() {
			out = append(out, u.CPI())
		}
	}
	return out
}

// OracleCPI is the average CPI over all measured sampling units: the
// quantity every sampling approach tries to estimate (§IV-C). Units
// without a valid counter reading are excluded from the mean.
func (t *Trace) OracleCPI() float64 {
	var sum float64
	n := 0
	for i := range t.Units {
		if u := &t.Units[i]; u.CPIValid() {
			sum += u.CPI()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EncodeGob writes the trace in gob format.
func (t *Trace) EncodeGob(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// DecodeGob reads a gob-encoded trace. The decoded trace is validated:
// structurally malformed inputs (non-dense unit ids, out-of-order
// method tables, snapshot frames outside the table, impossible
// profiler parameters) return a wrapped error here instead of panicking
// deep in the pipeline.
func DecodeGob(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		obsDecodeErrors.Inc()
		return nil, fmt.Errorf("trace: decode gob: %w", err)
	}
	if err := t.Validate(); err != nil {
		obsDecodeErrors.Inc()
		return nil, fmt.Errorf("trace: decode gob: %w", err)
	}
	obsDecodes.Inc()
	return &t, nil
}
