package faults

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"simprof/internal/model"
	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// buildTrace makes a valid multi-thread trace with two behaviours so
// phase formation has something to find: method A (CPI≈1) and method B
// (CPI≈3), alternating, across nThreads threads.
func buildTrace(nThreads, perThread int, seed uint64) *trace.Trace {
	tbl := model.NewTable()
	root := tbl.Intern("T", "run", model.KindFramework)
	a := tbl.Intern("A", "map", model.KindMap)
	b := tbl.Intern("B", "sort", model.KindSort)
	rng := stats.NewRNG(seed)
	tr := &trace.Trace{
		Benchmark: "synth", Framework: "spark",
		UnitInstr: 1000, SnapshotEvery: 100,
		Methods: tbl.Methods(),
	}
	var cycle uint64
	for th := 0; th < nThreads; th++ {
		for i := 0; i < perThread; i++ {
			m, cpi := a, 1.0+0.05*rng.Float64()
			if i%2 == 1 {
				m, cpi = b, 3.0+0.2*rng.Float64()
			}
			u := trace.Unit{
				ID: len(tr.Units), Thread: th, Index: i, StartCycle: cycle,
			}
			for s := 0; s < 10; s++ {
				tr.AppendSnapshot(&u, model.Stack{root, m})
			}
			u.Counters = trace.Counters{Instructions: 1000, Cycles: uint64(1000 * cpi)}
			cycle += u.Counters.Cycles
			tr.Units = append(tr.Units, u)
		}
	}
	return tr
}

func TestConfigValidateAndParse(t *testing.T) {
	if err := (Config{CounterDrop: 1.5}).Validate(); err == nil {
		t.Fatal("rate >1 accepted")
	}
	if err := (Config{Reorder: -0.1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	c, err := ParseSpec("drop=0.1, mux=0.2, snap=0.05,crash=0.01,dup=0.02,reorder=0.03")
	if err != nil {
		t.Fatal(err)
	}
	if c.CounterDrop != 0.1 || c.Multiplex != 0.2 || c.SnapshotLoss != 0.05 ||
		c.Crash != 0.01 || c.Duplicate != 0.02 || c.Reorder != 0.03 {
		t.Fatalf("parsed %+v", c)
	}
	if c.MultiplexCoV != 0.05 {
		t.Fatalf("muxcov default not applied: %v", c.MultiplexCoV)
	}
	if u, err := ParseSpec("rate=0.1"); err != nil || !u.Enabled() || u.CounterDrop != 0.1 {
		t.Fatalf("rate shorthand: %+v err=%v", u, err)
	}
	if _, err := ParseSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("drop"); err == nil {
		t.Fatal("missing value accepted")
	}
	if _, err := ParseSpec("drop=x"); err == nil {
		t.Fatal("non-numeric rate accepted")
	}
	if empty, err := ParseSpec("  "); err != nil || empty.Enabled() {
		t.Fatalf("blank spec: %+v err=%v", empty, err)
	}
	// Round trip through String.
	again, err := ParseSpec(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if again != c {
		t.Fatalf("String round trip lost fields: %+v vs %+v", again, c)
	}
}

func TestApplyLeavesInputUntouched(t *testing.T) {
	tr := buildTrace(4, 40, 1)
	var before bytes.Buffer
	if err := tr.EncodeGob(&before); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Apply(tr, Uniform(0.3, 7)); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := tr.EncodeGob(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("Apply mutated its input trace")
	}
}

func TestApplyDeterministic(t *testing.T) {
	tr := buildTrace(4, 40, 1)
	a, repA, err := Apply(tr, Uniform(0.15, 99))
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := Apply(tr, Uniform(0.15, 99))
	if err != nil {
		t.Fatal(err)
	}
	if repA != repB {
		t.Fatalf("reports differ: %+v vs %+v", repA, repB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, _, err := Apply(tr, Uniform(0.15, 100))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical faults")
	}
}

// Channel isolation: enabling a second channel must not change the
// draws of the first. The units dropped by CounterDrop alone must be
// exactly the units dropped when snapshot loss also runs.
func TestChannelIsolation(t *testing.T) {
	tr := buildTrace(2, 60, 3)
	only, _, err := Apply(tr, Config{CounterDrop: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	both, _, err := Apply(tr, Config{CounterDrop: 0.2, SnapshotLoss: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range only.Units {
		a := only.Units[i].Quality.Has(trace.CountersMissing)
		b := both.Units[i].Quality.Has(trace.CountersMissing)
		if a != b {
			t.Fatalf("unit %d: drop channel shifted by enabling snapshot loss (%v vs %v)", i, a, b)
		}
	}
}

func TestZeroConfigIsIdentity(t *testing.T) {
	tr := buildTrace(2, 20, 5)
	out, rep, err := Apply(tr, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep != (Report{}) {
		t.Fatalf("empty schedule injected something: %+v", rep)
	}
	if !reflect.DeepEqual(out.Units, tr.Units) {
		t.Fatal("empty schedule changed the units")
	}
}

func TestReportCounts(t *testing.T) {
	tr := buildTrace(4, 50, 2)
	faulty, rep, err := Apply(tr, Uniform(0.2, 17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CountersDropped == 0 || rep.SnapshotsLost == 0 || rep.Multiplexed == 0 {
		t.Fatalf("expected all collection channels to fire at 20%%: %+v", rep)
	}
	dropped := 0
	for i := range faulty.Units {
		if faulty.Units[i].Quality.Has(trace.CountersMissing) {
			dropped++
		}
	}
	// Duplication (which runs after the counter channel) may copy a
	// flagged unit, so the trace can hold slightly more flags than the
	// report counted — but never fewer, and never more than the copies
	// could add.
	if dropped < rep.CountersDropped || dropped > rep.CountersDropped+rep.Duplicated {
		t.Fatalf("report says %d dropped (+%d dups), trace has %d", rep.CountersDropped, rep.Duplicated, dropped)
	}
	if rep.UnitsLost > 0 && len(faulty.Units) >= len(tr.Units)+rep.Duplicated {
		t.Fatal("crash lost units but the trace did not shrink")
	}
	if got := rep.String(); got == "" {
		t.Fatal("empty report string")
	}
}

// The tentpole property: ANY seeded fault schedule, after Repair,
// yields a Validate-clean trace, and the downstream pipeline (phases +
// stratified sampling) is bit-identical at every worker count.
func TestApplyRepairProperty(t *testing.T) {
	tr := buildTrace(4, 40, 8)
	for _, rate := range []float64{0.02, 0.1, 0.25, 0.5} {
		for seed := uint64(0); seed < 8; seed++ {
			faulty, _, err := Apply(tr, Uniform(rate, seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := faulty.Repair(); err != nil {
				t.Fatalf("rate=%v seed=%d: repair failed: %v", rate, seed, err)
			}
			if err := faulty.Validate(); err != nil {
				t.Fatalf("rate=%v seed=%d: repaired trace invalid: %v", rate, seed, err)
			}
		}
	}
}

// pipelineResult summarizes everything downstream that must be
// worker-count invariant.
func pipelineResult(t *testing.T, tr *trace.Trace, workers int) string {
	t.Helper()
	ph, err := phase.Form(tr, phase.Options{Seed: 21, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sampling.SimProf(ph, 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	ci := sp.BootstrapCI(0.99, 200, 5)
	return fmt.Sprintf("K=%d assign=%v ids=%v est=%x se=%x ci=%x/%x",
		ph.K, ph.Assign, sp.UnitIDs, sp.EstCPI, sp.SE, ci.Mean, ci.Margin)
}

func TestDegradedPipelineWorkerInvariance(t *testing.T) {
	base := buildTrace(4, 40, 13)
	faulty, _, err := Apply(base, Uniform(0.15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Repair(); err != nil {
		t.Fatal(err)
	}
	want := pipelineResult(t, faulty, 1)
	for _, workers := range []int{2, 8} {
		if got := pipelineResult(t, faulty, workers); got != want {
			t.Fatalf("workers=%d diverged:\n  %s\nvs\n  %s", workers, got, want)
		}
	}
	// And the whole chain replays bit-for-bit from the same fault seed.
	again, _, err := Apply(base, Uniform(0.15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.Repair(); err != nil {
		t.Fatal(err)
	}
	if got := pipelineResult(t, again, 4); got != want {
		t.Fatalf("replayed chain diverged:\n  %s\nvs\n  %s", got, want)
	}
}

func TestCorruptBytes(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 256)
	a := CorruptBytes(data, 16, 3)
	b := CorruptBytes(data, 16, 3)
	if !bytes.Equal(a, b) {
		t.Fatal("CorruptBytes not deterministic")
	}
	if bytes.Equal(a, data) {
		t.Fatal("no bits flipped")
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{0xAA}, 256)) {
		t.Fatal("input mutated")
	}
	if out := CorruptBytes(nil, 5, 1); len(out) != 0 {
		t.Fatal("nil input should stay empty")
	}
}

// Corrupted encodings must decode to an error or a Validate-clean
// trace — never panic (the decode half of the byte-level channel).
func TestCorruptedDecodeNeverPanics(t *testing.T) {
	tr := buildTrace(2, 30, 4)
	var gob bytes.Buffer
	if err := tr.EncodeGob(&gob); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 50; seed++ {
		for _, flips := range []int{1, 4, 64} {
			if got, err := trace.DecodeGob(bytes.NewReader(CorruptBytes(gob.Bytes(), flips, seed))); err == nil {
				if verr := got.Validate(); verr != nil {
					t.Fatalf("gob seed=%d flips=%d: decoded invalid trace: %v", seed, flips, verr)
				}
			}
		}
	}
}
