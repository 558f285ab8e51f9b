package phase

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"simprof/internal/parallel"
	"simprof/internal/trace"
)

// scanOracle is the unit scan as one serial pass: degraded flags, and
// the clean units with their IPC in ascending order.
func scanOracle(tr *trace.Trace) ([]bool, []int, []float64) {
	degraded := make([]bool, len(tr.Units))
	var clean []int
	var ipc []float64
	for i := range tr.Units {
		if tr.EffectiveQuality(i).Degraded() {
			degraded[i] = true
			continue
		}
		clean = append(clean, i)
		ipc = append(ipc, tr.Units[i].Counters.IPC())
	}
	return degraded, clean, ipc
}

// scanTrace is a trace of three scanChunk chunks and a tail whose
// degraded units sit on both sides of every chunk edge, each degraded a
// different way, with a run across the second edge.
func scanTrace() *trace.Trace {
	n := 3*scanChunk + 300
	tr := &trace.Trace{UnitInstr: 100}
	tr.Units = make([]trace.Unit, n)
	for i := range tr.Units {
		tr.Units[i] = trace.Unit{ID: i, Counters: trace.Counters{Instructions: 1000, Cycles: uint64(1000 + i%977)}}
	}
	for _, i := range []int{0, scanChunk - 1, 3 * scanChunk, n - 1} {
		tr.Units[i].Counters = trace.Counters{} // counters missing by content
	}
	for _, i := range []int{1, scanChunk, 3*scanChunk - 1} {
		tr.Units[i].Quality |= trace.SnapshotsPartial
	}
	for i := 2*scanChunk - 50; i < 2*scanChunk+50; i++ {
		tr.Units[i].Quality |= trace.Truncated
	}
	return tr
}

// TestScanUnitsChunkEdges: the chunked unit scan equals one serial pass
// at workers 1, 2 and 8 when degraded units sit on chunk edges, and on a
// pristine trace.
func TestScanUnitsChunkEdges(t *testing.T) {
	for _, tr := range []*trace.Trace{scanTrace(), synthTrace(9000, 4)} {
		wantDeg, wantClean, wantIPC := scanOracle(tr)
		for _, w := range []int{1, 2, 8} {
			deg, clean, ipc, err := scanUnits(parallel.New(w), tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(deg, wantDeg) || !reflect.DeepEqual(clean, wantClean) || !reflect.DeepEqual(ipc, wantIPC) {
				t.Fatalf("workers=%d (%d units): scan differs from the serial pass", w, len(tr.Units))
			}
		}
	}
}

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

// TestFormCtxCanceledMidScan: a context that ends between chunks of the
// serial unit scan stops Form there with the context error.
func TestFormCtxCanceledMidScan(t *testing.T) {
	tr := scanTrace()
	for _, n := range []int64{1, 2} {
		ph, err := FormCtx(&errAfter{Context: context.Background(), n: n}, tr, Options{Workers: 1})
		if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "phase: unit scan:") {
			t.Fatalf("cancel after %d Err calls: %v, want the unit scan's context.Canceled", n, err)
		}
		if ph != nil {
			t.Fatal("canceled formation returned a partial Phases")
		}
	}
}
