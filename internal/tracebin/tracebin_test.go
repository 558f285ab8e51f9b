package tracebin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"simprof/internal/faults"
	"simprof/internal/model"
	"simprof/internal/phase"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// testTrace generates a small phase-structured trace.
func testTrace(t *testing.T, units int, seed uint64) *trace.Trace {
	t.Helper()
	spec := synth.DefaultTrace(units, seed)
	spec.Methods = 64
	spec.Snapshots = 5
	if units < spec.Phases {
		spec.Phases = units
	}
	tr, err := spec.Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return tr
}

// gobBytes re-encodes a trace as gob — the canonical byte-identity
// witness. Comparing gob bytes instead of reflect.DeepEqual sidesteps
// the nil-vs-empty-slice distinction gob itself cannot represent.
func gobBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.EncodeGob(&buf); err != nil {
		t.Fatalf("encode gob: %v", err)
	}
	return buf.Bytes()
}

// degradedTrace runs the fault injector and Repair over a synthetic
// trace, yielding a valid trace with quality-flagged units.
func degradedTrace(t *testing.T, units int, seed uint64) *trace.Trace {
	t.Helper()
	tr := testTrace(t, units, seed)
	out, _, err := faults.Apply(tr, faults.Uniform(0.2, seed))
	if err != nil {
		t.Fatalf("faults: %v", err)
	}
	if _, err := out.Repair(); err != nil {
		t.Fatalf("repair: %v", err)
	}
	return out
}

// TestRoundTripGobBinGob is the core format contract: gob → bin → gob
// reproduces the original gob bytes exactly, for pristine and degraded
// traces, through both the zero-copy and the copying decode paths.
func TestRoundTripGobBinGob(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"pristine", testTrace(t, 200, 7)},
		{"degraded", degradedTrace(t, 200, 11)},
	} {
		for _, copyPath := range []bool{false, true} {
			name := tc.name + "/zerocopy"
			if copyPath {
				name = tc.name + "/copied"
			}
			t.Run(name, func(t *testing.T) {
				want := gobBytes(t, tc.tr)
				// Through gob first, so the bin encoder sees exactly what a
				// legacy pipeline would hand it.
				viaGob, err := trace.DecodeBytes(want)
				if err != nil {
					t.Fatalf("decode gob: %v", err)
				}
				bin, err := Marshal(viaGob)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				defer func(old bool) { forceCopy = old }(forceCopy)
				forceCopy = copyPath
				back, err := Decode(bin)
				if err != nil {
					t.Fatalf("decode bin: %v", err)
				}
				if got := gobBytes(t, back); !bytes.Equal(got, want) {
					t.Fatalf("gob→bin→gob changed the trace (%d vs %d bytes)", len(got), len(want))
				}
				if back.Freq() == nil {
					t.Fatalf("bin decode did not attach a frequency matrix")
				}
			})
		}
	}
}

// TestDecodeBytesSniffsBin checks the registry wiring: DecodeBytes
// routes magic-prefixed buffers to this package.
func TestDecodeBytesSniffsBin(t *testing.T) {
	tr := testTrace(t, 50, 3)
	bin, err := Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := trace.DecodeBytes(bin)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if got.Freq() == nil {
		t.Fatalf("sniffed decode lost the frequency matrix")
	}
	if !bytes.Equal(gobBytes(t, got), gobBytes(t, tr)) {
		t.Fatalf("sniffed decode differs from original")
	}
}

// TestFreqMatchesVectorizeSparse: the decoded frequency matrix must be
// cell for cell a plain per-unit map count of the snapshot frames by
// method id, so phase formation can adopt it in place of the full-space
// VectorizeSparse without changing a bit of its output. The map count is
// the oracle of internal/phase/oracle_test.go keyed by id (a validated
// table has no shared FQN); a test package cannot import another's.
func TestFreqMatchesVectorizeSparse(t *testing.T) {
	for _, tr := range []*trace.Trace{
		testTrace(t, 1, 1), testTrace(t, 37, 37), testTrace(t, 200, 200), degradedTrace(t, 200, 22),
	} {
		bin, err := Marshal(tr)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		dec, err := Decode(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		got := dec.Freq()
		if got.Rows() != len(tr.Units) || got.Cols() != len(tr.Methods) {
			t.Fatalf("freq dims %dx%d, want %dx%d", got.Rows(), got.Cols(), len(tr.Units), len(tr.Methods))
		}
		for u := range tr.Units {
			byID := map[int32]float64{}
			snaps := tr.Snapshots(u)
			for j := 0; j < snaps.Len(); j++ {
				for _, id := range snaps.At(j) {
					byID[int32(id)]++
				}
			}
			cols, vals := got.Row(u)
			if len(cols) != len(byID) {
				t.Fatalf("unit %d: %d stored cells, oracle %d", u, len(cols), len(byID))
			}
			for k, c := range cols {
				if k > 0 && c <= cols[k-1] {
					t.Fatalf("unit %d: columns %v not ascending", u, cols)
				}
				if math.Float64bits(vals[k]) != math.Float64bits(byID[c]) {
					t.Fatalf("unit %d method %d: freq %v, oracle %v", u, c, vals[k], byID[c])
				}
			}
		}
	}
}

// TestFormBitIdentical is the adoption + parallel-projection contract:
// phase formation over a bin-decoded trace (frequency matrix adopted,
// projection parallel) is bit-for-bit the formation over the same trace
// decoded from gob (legacy vectorization), at every worker count —
// including a degraded trace where some units are fenced out.
func TestFormBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"pristine", testTrace(t, 240, 21)},
		{"degraded", degradedTrace(t, 240, 22)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gobTr, err := trace.DecodeBytes(gobBytes(t, tc.tr))
			if err != nil {
				t.Fatalf("decode gob: %v", err)
			}
			bin, err := Marshal(gobTr)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			binTr, err := Decode(bin)
			if err != nil {
				t.Fatalf("decode bin: %v", err)
			}
			if binTr.Freq() == nil {
				t.Fatalf("no frequency matrix to adopt")
			}
			opts := phase.Options{TopK: 20, MaxPhases: 6, Seed: 5, Workers: 1}
			ref, err := phase.Form(gobTr, opts)
			if err != nil {
				t.Fatalf("form(gob): %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				o := opts
				o.Workers = workers
				got, err := phase.Form(binTr, o)
				if err != nil {
					t.Fatalf("form(bin, workers=%d): %v", workers, err)
				}
				comparePhases(t, workers, ref, got)
			}
		})
	}
}

func comparePhases(t *testing.T, workers int, a, b *phase.Phases) {
	t.Helper()
	if a.K != b.K {
		t.Fatalf("workers=%d: K %d != %d", workers, b.K, a.K)
	}
	if math.Float64bits(a.Silhouette) != math.Float64bits(b.Silhouette) {
		t.Fatalf("workers=%d: silhouette %v != %v", workers, b.Silhouette, a.Silhouette)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("workers=%d: assign[%d] %d != %d", workers, i, b.Assign[i], a.Assign[i])
		}
	}
	for h := range a.Centers {
		for j := range a.Centers[h] {
			if math.Float64bits(a.Centers[h][j]) != math.Float64bits(b.Centers[h][j]) {
				t.Fatalf("workers=%d: center[%d][%d] %v != %v", workers, h, j, b.Centers[h][j], a.Centers[h][j])
			}
		}
	}
	for i := range a.Vectors {
		for j := range a.Vectors[i] {
			if math.Float64bits(a.Vectors[i][j]) != math.Float64bits(b.Vectors[i][j]) {
				t.Fatalf("workers=%d: vector[%d][%d] %v != %v", workers, i, j, b.Vectors[i][j], a.Vectors[i][j])
			}
		}
	}
}

// TestDecodeErrors: foreign, truncated and corrupted inputs come back
// as wrapped sentinel errors, never as panics or invalid traces.
func TestDecodeErrors(t *testing.T) {
	tr := testTrace(t, 40, 9)
	good, err := Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	t.Run("foreign", func(t *testing.T) {
		if _, err := Decode([]byte("GOBSTREAM....")); !errors.Is(err, ErrFormat) {
			t.Fatalf("foreign bytes: got %v, want ErrFormat", err)
		}
		if _, err := Decode(nil); !errors.Is(err, ErrFormat) {
			t.Fatalf("empty input: got %v, want ErrFormat", err)
		}
	})
	t.Run("truncated-header", func(t *testing.T) {
		if _, err := Decode(good[:10]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("10-byte file: got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated-body", func(t *testing.T) {
		_, err := Decode(good[:len(good)/2])
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("half file: got %v, want ErrChecksum/ErrTruncated", err)
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		bad := faults.CorruptBytes(good, 4, 1)
		if _, err := Decode(bad); err == nil {
			// A flip inside the header may leave the body CRC intact only
			// if it missed every checked field; decode must still reject.
			t.Fatalf("corrupted file decoded cleanly")
		}
	})
	t.Run("spans", func(t *testing.T) {
		// Decode reads the offset sections as spans and leaves them to the
		// trace rule, so a span that leaves its column gets its message.
		le := binary.LittleEndian
		stacks := len(section(t, good, secFrameOff))/4 - 1
		for _, tc := range []struct {
			id   uint32
			at   int
			want string
		}{
			{secSnapOff, 5, fmt.Sprintf("trace: unit 4 snapshot span [%d, %d) runs past the %d stacks",
				le.Uint32(section(t, good, secSnapOff)[4*4:]), 1<<30, stacks)},
			{secStageOff, 5, fmt.Sprintf("trace: unit 4 stage span [%d, %d) runs past the %d stage ids",
				le.Uint32(section(t, good, secStageOff)[4*4:]), 1<<30, len(section(t, good, secStageVal))/4)},
			{secFrameOff, stacks, fmt.Sprintf("trace: unit 39 snapshot frames [%d, %d) do not fit the %d frames",
				le.Uint32(section(t, good, secFrameOff)[4*(stacks-tr.Units[39].Snapshots.Len()):]), 1<<30,
				len(section(t, good, secFrames))/4)},
		} {
			bad := append([]byte(nil), good...)
			le.PutUint32(section(t, bad, tc.id)[4*tc.at:], 1<<30)
			fixCRC(bad)
			if _, err := Decode(bad); err == nil || err.Error() != "tracebin: decode: "+tc.want {
				t.Fatalf("section %d entry %d: got %v, want %q", tc.id, tc.at, err, tc.want)
			}
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 99
		if _, err := Decode(bad); err == nil {
			t.Fatalf("version 99 accepted")
		}
	})
}

// TestDecodeValidates: every decoded trace passes trace.Validate — the
// same trust-boundary guarantee the gob decoder gives.
func TestDecodeValidates(t *testing.T) {
	for _, units := range []int{1, 64, 333} {
		tr := degradedTrace(t, units, uint64(units)*3)
		bin, err := Marshal(tr)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		dec, err := Decode(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("units=%d: decoded trace fails Validate: %v", units, err)
		}
	}
}

// TestMarshalRejectsInvalid: the encoder refuses traces that fail
// Validate instead of writing files no decoder would accept.
func TestMarshalRejectsInvalid(t *testing.T) {
	tr := testTrace(t, 10, 1)
	tr.Units[3].ID = 99
	if _, err := Marshal(tr); err == nil {
		t.Fatalf("marshal accepted a non-dense unit id")
	}
}

// invariantTrace is a small valid trace whose columns the invariant
// tests patch: two methods with equal-length names, four units of two
// snapshots (frames {0,1} and {1}) at a cadence that allows three.
func invariantTrace() *trace.Trace {
	tr := &trace.Trace{
		UnitInstr:     100,
		SnapshotEvery: 50,
		Methods: []model.Method{
			{ID: 0, Class: "a", Name: "xx", Kind: model.KindMap},
			{ID: 1, Class: "a", Name: "yy", Kind: model.KindReduce},
		},
	}
	for i := 0; i < 4; i++ {
		u := trace.Unit{ID: i, Thread: i / 2, Index: i % 2,
			Counters: trace.Counters{Instructions: 100, Cycles: 150}}
		tr.AppendSnapshot(&u, model.Stack{0, 1})
		tr.AppendSnapshot(&u, model.Stack{1})
		tr.Units = append(tr.Units, u)
	}
	return tr
}

// TestDecodersShareInvariants: for every structural defect, SPTB and
// gob decoding reject it with Validate's message for it. The defect is
// made twice from invariantTrace: on the trace, whose Validate error is
// the message and whose gob encoding is decoded, and as a patch of its
// SPTB columns. Unit and method ids are positions in SPTB, so it cannot
// express the two id defects. A unit's spans are two adjacent entries of
// an offset section, so a patch of entry i+1 also moves unit i+1's span:
// each span patch breaks the earlier unit, which fails first.
func TestDecodersShareInvariants(t *testing.T) {
	le := binary.LittleEndian
	for _, tc := range []struct {
		name   string
		break_ func(tr *trace.Trace)
		patch  func(t *testing.T, bin []byte) // nil: SPTB cannot express it
	}{
		{"zero unit size", func(tr *trace.Trace) { tr.UnitInstr = 0 },
			func(t *testing.T, bin []byte) { le.PutUint64(section(t, bin, secMeta)[0:], 0) }},
		{"cadence above unit", func(tr *trace.Trace) { tr.SnapshotEvery = 1000 },
			func(t *testing.T, bin []byte) { le.PutUint64(section(t, bin, secMeta)[8:], 1000) }},
		{"repeated FQN", func(tr *trace.Trace) { tr.Methods[1].Name = "xx" },
			func(t *testing.T, bin []byte) { copy(section(t, bin, secMethodStr)[4:], "xx") }},
		{"method ids out of order", func(tr *trace.Trace) {
			tr.Methods[0], tr.Methods[1] = tr.Methods[1], tr.Methods[0]
		}, nil},
		{"non-dense ids", func(tr *trace.Trace) { tr.Units[2].ID = 7 }, nil},
		{"negative thread", func(tr *trace.Trace) { tr.Units[1].Thread = -1 },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secThread)[4*1:], math.MaxUint32) }},
		{"negative index", func(tr *trace.Trace) { tr.Units[1].Index = -2 },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secIndex)[4*1:], math.MaxUint32-1) }},
		{"overfull counters", func(tr *trace.Trace) { tr.Units[1].Counters.Instructions = 1000 },
			func(t *testing.T, bin []byte) { le.PutUint64(section(t, bin, secInstr)[8*1:], 1000) }},
		{"unknown method", func(tr *trace.Trace) { tr.Frames[3] = 42 },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secFrames)[4*3:], 42) }},
		{"too many snapshots", func(tr *trace.Trace) {
			// Unit 0 takes unit 1's snapshots.
			tr.Units[0].Snapshots.Hi = 4
			tr.Units[1].Snapshots = trace.Span{}
		}, func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secSnapOff)[4*1:], 4) }},
		{"broken snapshot offsets", func(tr *trace.Trace) { tr.FrameOff[3] = 7 },
			func(t *testing.T, bin []byte) {
				// Unit 1's frame offsets are entries 2..4, at frames 3, 5, 6.
				le.PutUint32(section(t, bin, secFrameOff)[4*3:], 7)
			}},
		// Unit 1's snapshots are stacks [2, 4) and it has no stages.
		{"snapshot span past frame offsets", func(tr *trace.Trace) { tr.Units[1].Snapshots.Hi = 40 },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secSnapOff)[4*2:], 40) }},
		{"inverted snapshot span", func(tr *trace.Trace) { tr.Units[1].Snapshots = trace.Span{Lo: 2, Hi: 1} },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secSnapOff)[4*2:], 1) }},
		{"stage span past stage ids", func(tr *trace.Trace) { tr.Units[1].Stages = trace.Span{Lo: 0, Hi: 3} },
			func(t *testing.T, bin []byte) { le.PutUint32(section(t, bin, secStageOff)[4*2:], 3) }},
		{"unknown quality bits", func(tr *trace.Trace) { tr.Units[1].Quality = 0x80 },
			func(t *testing.T, bin []byte) { section(t, bin, secQuality)[1] = 0x80 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := invariantTrace()
			tc.break_(broken)
			verr := broken.Validate()
			if verr == nil {
				t.Fatalf("Validate accepts the defect")
			}
			want := verr.Error()
			check := func(codec string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: got %v, want an error containing %q", codec, err, want)
				}
			}
			var gobBuf bytes.Buffer
			if err := broken.EncodeGob(&gobBuf); err != nil {
				t.Fatal(err)
			}
			_, err := trace.DecodeGob(&gobBuf)
			check("gob", err)
			if tc.patch == nil {
				return
			}
			bin, err := Marshal(invariantTrace())
			if err != nil {
				t.Fatal(err)
			}
			tc.patch(t, bin)
			fixCRC(bin)
			_, err = Decode(bin)
			check("SPTB", err)
		})
	}
}
