package trace

import (
	"slices"

	"simprof/internal/matrix"
)

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
		for _, id := range t.Snapshots(i).Frames {
			if id < 0 || int(id) >= m {
				continue
			}
			if counts[id] == 0 {
				touched = append(touched, int32(id))
			}
			counts[id]++
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
// the gob codec never serializes it; it rides along in memory only.

// SetFreq attaches a pre-computed method-frequency matrix (rows =
// units, cols = methods). Decoders that materialize or adopt the matrix
// call this so phase formation can skip vectorization.
func (t *Trace) SetFreq(f *matrix.Sparse) { t.freq = f }

// Freq returns the attached method-frequency matrix, or nil when the
// trace was not decoded from a columnar format. Callers must treat it
// as read-only and verify its dimensions against the trace before
// adopting it.
func (t *Trace) Freq() *matrix.Sparse { return t.freq }
