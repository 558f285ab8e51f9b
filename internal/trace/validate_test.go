package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"simprof/internal/model"
)

// threadedTrace builds a valid trace: 2 threads × 4 units, 2 snapshots
// per unit at a 100/50 cadence.
func threadedTrace() *Trace {
	tbl := model.NewTable()
	m1 := tbl.Intern("A", "map", model.KindMap)
	m2 := tbl.Intern("B", "reduce", model.KindReduce)
	tr := &Trace{
		Benchmark: "x", Framework: "spark",
		UnitInstr: 100, SnapshotEvery: 50,
		Methods: tbl.Methods(),
	}
	for th := 0; th < 2; th++ {
		for i := 0; i < 4; i++ {
			m := m1
			if i%2 == 1 {
				m = m2
			}
			u := Unit{
				ID: len(tr.Units), Thread: th, Index: i,
				Counters: Counters{Instructions: 100, Cycles: 150 + uint64(10*i)},
			}
			tr.AppendSnapshot(&u, model.Stack{m})
			tr.AppendSnapshot(&u, model.Stack{m})
			tr.Units = append(tr.Units, u)
		}
	}
	return tr
}

// setSnaps gives unit i the literal stacks as its snapshots, appended at
// the end of the frame columns (its old stacks stay, unreferenced).
func setSnaps(tr *Trace, i int, stacks ...model.Stack) {
	u := &tr.Units[i]
	u.Snapshots = Span{}
	for _, st := range stacks {
		tr.AppendSnapshot(u, st)
	}
}

func TestValidateAcceptsGoodTrace(t *testing.T) {
	if err := threadedTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Trace)
		want   string
	}{
		{"zero unit size", func(tr *Trace) { tr.UnitInstr = 0 }, "unitinstr"},
		{"cadence above unit", func(tr *Trace) { tr.SnapshotEvery = 1000 }, "snapshotevery"},
		{"non-dense ids", func(tr *Trace) { tr.Units[3].ID = 77 }, "non-dense"},
		{"negative thread", func(tr *Trace) { tr.Units[0].Thread = -1 }, "thread"},
		{"negative index", func(tr *Trace) { tr.Units[0].Index = -2 }, "index"},
		{"overfull counters", func(tr *Trace) { tr.Units[0].Counters.Instructions = 1000 }, "instructions"},
		{"unknown method", func(tr *Trace) {
			setSnaps(tr, 1, model.Stack{42}, tr.Snapshots(1).At(1))
		}, "method"},
		{"too many snapshots", func(tr *Trace) {
			s := tr.Snapshots(0).At(0)
			setSnaps(tr, 0, s, s, s, s)
		}, "snapshots"},
		{"unknown quality bits", func(tr *Trace) { tr.Units[0].Quality = 0x80 }, "quality"},
		{"method ids out of order", func(tr *Trace) {
			tr.Methods[0], tr.Methods[1] = tr.Methods[1], tr.Methods[0]
		}, "method"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := threadedTrace()
			c.break_(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatalf("%s not caught", c.name)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
	var nilTrace *Trace
	if err := nilTrace.Validate(); err == nil {
		t.Fatal("nil trace should not validate")
	}
}

func TestRepairDuplicatesAndReorder(t *testing.T) {
	tr := threadedTrace()
	// Duplicate unit 2 (append with same id) and swap two units.
	tr.Units = append(tr.Units, tr.Units[2])
	tr.Units[0], tr.Units[5] = tr.Units[5], tr.Units[0]
	if err := tr.Validate(); err == nil {
		t.Fatal("broken trace should not validate")
	}
	rep, err := tr.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed() {
		t.Fatal("repair reported no changes")
	}
	if rep.UnitsDropped != 1 {
		t.Fatalf("UnitsDropped=%d want 1", rep.UnitsDropped)
	}
	if rep.UnitsReordered == 0 {
		t.Fatal("reordering not reported")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("repaired trace invalid: %v", err)
	}
	if len(tr.Units) != 8 {
		t.Fatalf("units=%d want 8", len(tr.Units))
	}
	for i, u := range tr.Units {
		if u.ID != i {
			t.Fatalf("id %d at position %d", u.ID, i)
		}
	}
	if rep.String() == "no changes" {
		t.Fatal("String should describe the repair")
	}
}

func TestRepairFlagsSequenceGaps(t *testing.T) {
	tr := threadedTrace()
	// Remove thread 0's unit at index 2: the stream jumps 1 → 3.
	tr.Units = append(tr.Units[:2], tr.Units[3:]...)
	rep, err := tr.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlaggedTruncated != 1 {
		t.Fatalf("FlaggedTruncated=%d want 1", rep.FlaggedTruncated)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// The unit after the gap carries the flag.
	found := false
	for _, u := range tr.Units {
		if u.Thread == 0 && u.Index == 3 {
			found = u.Quality.Has(Truncated)
		}
	}
	if !found {
		t.Fatal("unit after the gap not flagged Truncated")
	}
}

func TestRepairDropsForeignFrames(t *testing.T) {
	tr := threadedTrace()
	setSnaps(tr, 1, model.Stack{model.MethodID(99)}, tr.Snapshots(1).At(1))
	rep, err := tr.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FramesDropped == 0 {
		t.Fatal("foreign frame not dropped")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Units[1].Quality.Has(SnapshotsPartial) {
		t.Fatal("unit with dropped frame not flagged SnapshotsPartial")
	}
}

func TestEffectiveQualityDerivesFlags(t *testing.T) {
	tr := threadedTrace()
	tr.Units[0].Counters = Counters{}
	setSnaps(tr, 1, tr.Snapshots(1).At(0))
	if q := tr.EffectiveQuality(0); !q.Has(CountersMissing) {
		t.Fatalf("zero counters not derived: %v", q)
	}
	if q := tr.EffectiveQuality(1); !q.Has(SnapshotsPartial) {
		t.Fatalf("short snapshots not derived: %v", q)
	}
	if q := tr.EffectiveQuality(2); q != OK {
		t.Fatalf("clean unit flagged: %v", q)
	}
	if got := tr.DegradedFraction(); got != 0.25 {
		t.Fatalf("DegradedFraction=%v want 0.25", got)
	}
	sum := tr.Summarize()
	if sum.OK != 6 || sum.CountersMissing != 1 || sum.SnapshotsPartial != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if !strings.Contains(sum.String(), "counters_missing") {
		t.Fatalf("summary string %q", sum)
	}
}

func TestQualityString(t *testing.T) {
	if got := OK.String(); got != "ok" {
		t.Fatalf("OK=%q", got)
	}
	q := CountersMissing | Truncated
	s := q.String()
	if !strings.Contains(s, "counters_missing") || !strings.Contains(s, "truncated") {
		t.Fatalf("flags=%q", s)
	}
}

// Satellite regression: zero-instruction units must not drag the oracle
// CPI toward zero or inject CPI-0 points into σ estimation.
func TestOracleCPIExcludesInvalidUnits(t *testing.T) {
	tr := threadedTrace()
	want := tr.OracleCPI()
	tr.Units = append(tr.Units, Unit{
		ID: len(tr.Units), Thread: 2, Index: 0,
		Snapshots: tr.Units[0].Snapshots,
	})
	if got := tr.OracleCPI(); got != want {
		t.Fatalf("OracleCPI moved from %v to %v after adding a zero-instruction unit", want, got)
	}
	if got := len(tr.CPIs()); got != 8 {
		t.Fatalf("CPIs length %d want 8 (invalid unit included)", got)
	}
	// Explicit flag without zero counters also excludes.
	tr2 := threadedTrace()
	want2 := len(tr2.CPIs())
	tr2.Units[0].Quality |= CountersMissing
	if got := len(tr2.CPIs()); got != want2-1 {
		t.Fatalf("flagged unit not excluded: %d CPIs", got)
	}
}

func TestDecodeRejectsStructurallyInvalid(t *testing.T) {
	tr := threadedTrace()
	tr.Units[2].ID = 99 // non-dense
	var gob bytes.Buffer
	if err := tr.EncodeGob(&gob); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeGob(&gob); err == nil {
		t.Fatal("invalid gob decoded without error")
	} else if !strings.Contains(err.Error(), "non-dense") {
		t.Fatalf("error does not surface the Validate failure: %v", err)
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	tr := threadedTrace()
	var gob bytes.Buffer
	if err := tr.EncodeGob(&gob); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 7, gob.Len() / 2, gob.Len() - 1} {
		if _, err := DecodeGob(bytes.NewReader(gob.Bytes()[:cut])); err == nil {
			t.Fatalf("gob truncated at %d decoded without error", cut)
		}
	}
}

func TestRepairIdempotent(t *testing.T) {
	tr := threadedTrace()
	dup := tr.Units[1]
	tr.Units = append(tr.Units, dup)
	if _, err := tr.Repair(); err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed() {
		t.Fatalf("second repair changed a repaired trace: %+v", rep)
	}
}

// multiTrace builds a trace with units across 2 threads and 2 stages.
func multiTrace() *Trace {
	tbl := model.NewTable()
	m1 := tbl.Intern("A", "map", model.KindMap)
	m2 := tbl.Intern("B", "reduce", model.KindReduce)
	tr := &Trace{
		Benchmark: "x", Framework: "spark", Methods: tbl.Methods(),
		UnitInstr: 100, SnapshotEvery: 100,
	}
	perThread := map[int]int{}
	add := func(thread int, stage int32, m model.MethodID) {
		u := Unit{
			ID: len(tr.Units), Thread: thread, Index: perThread[thread],
			Counters: Counters{Instructions: 100, Cycles: 150},
		}
		u.Stages = Span{Lo: uint32(len(tr.StageIDs)), Hi: uint32(len(tr.StageIDs) + 1)}
		tr.StageIDs = append(tr.StageIDs, stage)
		tr.AppendSnapshot(&u, model.Stack{m})
		perThread[thread]++
		tr.Units = append(tr.Units, u)
	}
	add(0, 0, m1)
	add(0, 0, m1)
	add(0, 1, m2)
	add(1, 0, m1)
	add(1, 1, m2)
	return tr
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := multiTrace()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	nonDense := multiTrace()
	nonDense.Units[2].ID = 99
	if err := nonDense.Validate(); err == nil {
		t.Fatal("non-dense ids not caught")
	} else if !strings.Contains(err.Error(), "non-dense") {
		t.Fatalf("wrong error: %v", err)
	}

	// Zero instructions is a quality problem, not a structural one: the
	// unit stays, flagged CountersMissing, and drops out of CPI stats.
	zeroInstr := multiTrace()
	zeroInstr.Units[1].Counters.Instructions = 0
	if err := zeroInstr.Validate(); err != nil {
		t.Fatalf("zero instructions should validate (quality, not structure): %v", err)
	}
	if q := zeroInstr.EffectiveQuality(1); !q.Has(CountersMissing) {
		t.Fatalf("zero-instruction unit not flagged: %v", q)
	}

	badMethod := multiTrace()
	setSnaps(badMethod, 0, model.Stack{42})
	if err := badMethod.Validate(); err == nil {
		t.Fatal("unknown method not caught")
	}
}

// TestValidateRejectsBrokenSnapshotOffsets: spans that do not fit the
// columns, and stack offsets that do not fit the frames, are a
// structural error, from Validate, Repair and the gob decoder, never a
// panic in Snapshots, At or Stages. Offsets that do fit are read
// relative to a unit's first offset, wherever the column starts.
func TestValidateRejectsBrokenSnapshotOffsets(t *testing.T) {
	for i, tr := range brokenSpanTraces() {
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "trace: unit 1 s") {
			t.Fatalf("case %d: Validate = %v, want a unit 1 span or offset error", i, err)
		}
		if _, err := tr.Repair(); err == nil {
			t.Fatalf("case %d: Repair accepted broken spans", i)
		}
		var gob bytes.Buffer
		if err := tr.EncodeGob(&gob); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeGob(&gob); err == nil {
			t.Fatalf("case %d: DecodeGob accepted broken spans", i)
		}
	}

	// An absolute base, as a decoded columnar trace's spans have, is
	// valid and reads the same snapshots.
	want, tr := threadedTrace(), threadedTrace()
	tr.Frames = append(make([]model.MethodID, 7), tr.Frames...)
	for k := range tr.FrameOff {
		tr.FrameOff[k] += 7
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("offsets based at 7: %v", err)
	}
	for i := range tr.Units {
		g, w := tr.Snapshots(i), want.Snapshots(i)
		if g.Len() != w.Len() || g.Off[0] != w.Off[0]+7 {
			t.Fatalf("unit %d: offsets based at 7 read as %d snapshots from %d", i, g.Len(), g.Off[0])
		}
		for j := 0; j < w.Len(); j++ {
			if !slices.Equal(g.At(j), w.At(j)) {
				t.Fatalf("unit %d snapshot %d: %v, want %v", i, j, g.At(j), w.At(j))
			}
		}
	}
}

// TestCodecsKeepSpans: gob carries the columns and every unit's
// spans as they are, so a trace whose spans leave unit order (here unit
// 0's snapshots moved to the end of the columns, and a stage list shared
// by two units) decodes to the same rows, columns and snapshots.
func TestCodecsKeepSpans(t *testing.T) {
	tr := multiTrace()
	setSnaps(tr, 0, model.Stack{1, 0}, model.Stack{0})
	tr.Units[4].Stages = tr.Units[1].Stages
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var gob bytes.Buffer
	if err := tr.EncodeGob(&gob); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGob(&gob)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Units, tr.Units) || !slices.Equal(got.Frames, tr.Frames) ||
		!slices.Equal(got.FrameOff, tr.FrameOff) || !slices.Equal(got.StageIDs, tr.StageIDs) {
		t.Fatalf("decoded rows or columns differ")
	}
	if got.Snapshots(0).Len() != 2 || !slices.Equal(got.Snapshots(0).At(0), model.Stack{1, 0}) {
		t.Fatalf("moved snapshots read as %v", got.Snapshots(0))
	}
	if !slices.Equal(got.Stages(4), []int32{0}) {
		t.Fatalf("shared stage span reads %v", got.Stages(4))
	}
}

// TestUnitRangeSharesColumns: a unit-range view reads the same snapshots
// and stages as the trace it views, and an append to the view never
// writes into the trace's columns.
func TestUnitRangeSharesColumns(t *testing.T) {
	tr := multiTrace()
	tr.Frames = slices.Grow(tr.Frames, 16) // spare capacity an append could reuse
	v := tr.UnitRange(2, 5)
	if len(v.Units) != 3 || v.Freq() != nil {
		t.Fatalf("view holds %d units", len(v.Units))
	}
	for i := range v.Units {
		if !slices.Equal(v.Snapshots(i).Frames, tr.Snapshots(2+i).Frames) ||
			!slices.Equal(v.Stages(i), tr.Stages(2+i)) {
			t.Fatalf("view unit %d differs from unit %d", i, 2+i)
		}
	}
	before := slices.Clone(tr.Frames[:cap(tr.Frames)])
	u := Unit{}
	v.AppendSnapshot(&u, model.Stack{1, 1, 1})
	if !slices.Equal(tr.Frames[:cap(tr.Frames)], before) {
		t.Fatalf("an append to the view wrote into the trace's frames")
	}
}
