package sampling

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"simprof/internal/parallel"
	"simprof/internal/phase"
	"simprof/internal/trace"
)

// errAfter is a context whose first n Err calls report nothing and
// every later one context.Canceled: a cancellation that lands between
// two chunk claims of a loop.
type errAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// loseCounters drops unit i's counters, as a multiplexing dropout does.
func loseCounters(tr *trace.Trace, i int) {
	u := &tr.Units[i]
	u.Counters = trace.Counters{}
	u.Quality |= trace.CountersMissing
}

// edgeTrace is a formed trace spanning three strataChunk chunks whose
// degraded units (fenced out by Form) and unmeasured ones (counters lost
// after Form) sit on both sides of every chunk edge, with a run of
// unmeasured units across the second edge.
func edgeTrace(t *testing.T) *phase.Phases {
	t.Helper()
	tr := mixedTrace(14_700, 13)
	n := len(tr.Units)
	if c := parallel.Chunks(n, strataChunk); c != 3 {
		t.Fatalf("%d units fill %d chunks, want 3", n, c)
	}
	for _, i := range []int{0, strataChunk - 1, 2 * strataChunk, n - 1} {
		loseCounters(tr, i)
	}
	ph := formed(t, tr)
	for _, i := range []int{1, strataChunk, 2*strataChunk - 1, n - 2} {
		loseCounters(tr, i)
	}
	for i := 2*strataChunk - 40; i < 2*strataChunk+40; i++ {
		loseCounters(tr, i)
	}
	return ph
}

// TestScanStrataChunkEdges: on a trace whose degraded and unmeasured
// units sit on chunk edges, the chunked stratum scan is the same at
// workers 1, 2 and 8, and SimProf, PlanSE and RequiredSampleSize equal
// the five-pass reference bit for bit.
func TestScanStrataChunkEdges(t *testing.T) {
	ph := edgeTrace(t)
	base, err := scanStrata(parallel.New(1), ph)
	if err != nil {
		t.Fatal(err)
	}
	for h := range base.units {
		if len(base.units[h]) != len(oracleMeasuredUnits(ph, h)) {
			t.Fatalf("phase %d: %d measured units, want %d", h, len(base.units[h]), len(oracleMeasuredUnits(ph, h)))
		}
	}
	for _, w := range []int{2, 8} {
		got, err := scanStrata(parallel.New(w), ph)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: stratum scan differs from workers=1", w)
		}
	}
	checkAgainstOracle(t, "chunk edges", ph)
}

// TestSimProfCtxCanceledMidScan: a context that ends while the stratum
// scan runs makes SimProfCtx return the context error, wherever in the
// scan it lands; once it lands after the draw, the sample is the
// uncanceled one.
func TestSimProfCtxCanceledMidScan(t *testing.T) {
	ph := edgeTrace(t)
	want, err := SimProf(ph, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); ; n++ {
		got, err := SimProfCtx(&errAfter{Context: context.Background(), n: n}, ph, 40, 3)
		if err == nil {
			if n < 3 {
				t.Fatalf("cancel after %d Err calls did not stop the scan", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cancel after %d Err calls: an uncanceled run differs", n)
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d Err calls: %v, want context.Canceled", n, err)
		}
	}
}
