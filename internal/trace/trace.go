// Package trace defines the on-disk and in-memory representation of a
// profiling run: the sampling units (the paper's 100M-instruction
// intervals) with their call-stack snapshots and hardware counters, plus
// the interned method table needed to interpret them. Traces serialize
// to gob (compact) and JSON (interoperable).
package trace

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

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
	Snapshots  []model.Stack // one per snapshot interval
	Stages     []int         // engine stages observed in the unit (sorted, unique)
	Quality    Quality       // degradation flags (OK for a pristine unit)
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
	// attached (see SetFreq/Freq in compact.go). Unexported: it is an
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
	// Gob hands back one heap object per snapshot per unit; repack them
	// into contiguous arenas so the downstream hot loops walk linear
	// memory (contents are bit-identical, see Compact).
	t.Compact()
	obsDecodes.Inc()
	return &t, nil
}

// EncodeJSON writes the trace as indented JSON.
func (t *Trace) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
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
	t.Compact()
	obsDecodes.Inc()
	return &t, nil
}
