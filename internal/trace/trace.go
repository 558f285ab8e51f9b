// Package trace defines the on-disk and in-memory representation of a
// profiling run: the sampling units (the paper's 100M-instruction
// intervals) with their call-stack snapshots and hardware counters, plus
// the interned method table needed to interpret them. Traces serialize
// to gob (compact) and JSON (interoperable); binary formats register
// themselves (see RegisterFormat).
//
// A unit's snapshots are one CSR view, Unit.Snapshots: a flat frame
// slice plus a snapshot-offset slice, read through Len and At, never a
// slice header per snapshot. The columnar decoder (internal/tracebin)
// points both slices straight into the file's frame and frame-offset
// columns, so its offsets start wherever the unit's frames start in the
// file; every reader subtracts Off[0]. The gob and JSON encoders write
// the offsets rebased to 0, so a trace's encoding depends only on its
// content. The wire shape is a {Frames, Off} object per unit: gob and
// JSON traces written before this representation, which carried one
// array per snapshot, no longer decode.
package trace

import (
	"encoding/gob"
	"encoding/json"
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
		"traces decoded successfully (gob + json)")
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
// one (possibly merged) executor thread, carrying the call-stack
// snapshots taken inside it and its counters.
type Unit struct {
	ID         int // dense id within the trace
	Thread     int // profiled (merged) thread index
	Index      int // position within that thread
	StartCycle uint64
	Counters   Counters
	Snapshots  Snapshots // one per snapshot interval
	Stages     []int     // engine stages observed in the unit (sorted, unique)
	Quality    Quality   // degradation flags (OK for a pristine unit)
}

// Snapshots holds one unit's call-stack snapshots in CSR form: snapshot
// j is Frames[Off[j]-Off[0] : Off[j+1]-Off[0]], so Frames is the unit's
// frames in snapshot order and Off has one entry more than there are
// snapshots (none for a unit without snapshots). Off need not start at
// 0: a decoded columnar trace's views keep the file's absolute offsets.
// Validate checks that the offsets fit Frames, so At cannot panic on a
// validated trace. A decoded trace's slices may alias the input buffer:
// change a unit's snapshots by building fresh slices (Append does), never
// by writing through them.
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

// Append adds a copy of stack as the last snapshot. It never writes into
// the backing arrays of a decoded view: those are capped at their
// length, so the first append reallocates.
func (s *Snapshots) Append(stack model.Stack) {
	if len(s.Off) == 0 {
		s.Off = append(s.Off, 0)
	}
	s.Frames = append(s.Frames, stack...)
	s.Off = append(s.Off, s.Off[0]+uint32(len(s.Frames)))
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

	// freq is the per-unit method-frequency matrix a columnar decoder
	// attached (see SetFreq/Freq in counts.go). Unexported: it is an
	// in-memory acceleration handle, never serialized.
	freq *matrix.Sparse
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
	return gob.NewEncoder(w).Encode(t.rebased())
}

// rebased returns t, or when some unit's snapshot offsets do not start
// at 0 (a decoded columnar view), a shallow copy whose units carry
// offsets rebased to 0 in one shared arena. Offsets are rebased modulo
// 2^32, like At reads them, so even an invalid unit keeps its meaning.
func (t *Trace) rebased() *Trace {
	n := 0
	for i := range t.Units {
		if off := t.Units[i].Snapshots.Off; len(off) > 0 && off[0] != 0 {
			n += len(off)
		}
	}
	if n == 0 {
		return t
	}
	out := *t
	out.Units = slices.Clone(t.Units)
	arena := make([]uint32, 0, n)
	for i := range out.Units {
		s := &out.Units[i].Snapshots
		if len(s.Off) == 0 || s.Off[0] == 0 {
			continue
		}
		a := len(arena)
		for _, o := range s.Off {
			arena = append(arena, o-s.Off[0])
		}
		s.Off = arena[a:len(arena):len(arena)]
	}
	return &out
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

// EncodeJSON writes the trace as indented JSON.
func (t *Trace) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.rebased())
}

// DecodeJSON reads a JSON-encoded trace, validating it like DecodeGob.
func DecodeJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		obsDecodeErrors.Inc()
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	if err := t.Validate(); err != nil {
		obsDecodeErrors.Inc()
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	obsDecodes.Inc()
	return &t, nil
}
