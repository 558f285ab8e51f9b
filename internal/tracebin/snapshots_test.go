package tracebin

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"simprof/internal/experiments"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// decodeVia encodes tr with codec ("bin", "bin-copied" or "gob") and
// decodes it again; "bin-copied" takes the portable copying path instead
// of the zero-copy views.
func decodeVia(t *testing.T, tr *trace.Trace, codec string) *trace.Trace {
	t.Helper()
	if codec == "bin" || codec == "bin-copied" {
		bin, err := Marshal(tr)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		defer func(old bool) { forceCopy = old }(forceCopy)
		forceCopy = codec == "bin-copied"
		got, err := Decode(bin)
		if err != nil {
			t.Fatalf("decode bin: %v", err)
		}
		return got
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf, codec); err != nil {
		t.Fatalf("encode %s: %v", codec, err)
	}
	got, err := trace.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("decode %s: %v", codec, err)
	}
	return got
}

// TestSnapshotsAgreeAcrossCodecs: SPTB (zero-copy and copying) and gob
// decodes of synthetic, degraded and Table I traces hold, unit by
// unit, the snapshots of the trace they were encoded from, read through
// Len and At, and count the same methods. A decoded trace's spans index
// the columns as its codec laid them out, so Len and At are what "the
// same snapshots" means across codecs.
func TestSnapshotsAgreeAcrossCodecs(t *testing.T) {
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"synth", testTrace(t, 300, 5)},
		{"degraded", degradedTrace(t, 300, 6)},
	}
	suite := experiments.NewSuite(experiments.Quick())
	for _, k := range suite.Workloads() {
		tr, err := suite.Trace(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		traces = append(traces, struct {
			name string
			tr   *trace.Trace
		}{k, tr})
	}
	for _, tc := range traces {
		want := tc.tr.CountMethods()
		for _, codec := range []string{"bin", "bin-copied", "gob"} {
			got := decodeVia(t, tc.tr, codec)
			if len(got.Units) != len(tc.tr.Units) {
				t.Fatalf("%s/%s: %d units, want %d", tc.name, codec, len(got.Units), len(tc.tr.Units))
			}
			for i := range got.Units {
				g, w := got.Snapshots(i), tc.tr.Snapshots(i)
				if g.Len() != w.Len() {
					t.Fatalf("%s/%s: unit %d has %d snapshots, want %d", tc.name, codec, i, g.Len(), w.Len())
				}
				for j := 0; j < w.Len(); j++ {
					if !slices.Equal(g.At(j), w.At(j)) {
						t.Fatalf("%s/%s: unit %d snapshot %d is %v, want %v", tc.name, codec, i, j, g.At(j), w.At(j))
					}
				}
			}
			if c := got.CountMethods(); !reflect.DeepEqual(c, want) {
				t.Fatalf("%s/%s: CountMethods differs from the source trace's", tc.name, codec)
			}
		}
	}
}

// TestDecodeHeapPerUnit bounds the heap bytes Decode allocates per unit
// on the zero-copy path. A unit costs its pointer-free trace.Unit row
// (96 B); the frame, frame-offset and stage columns are views of the
// input. A per-unit stage copy (8 B) or slice header (24 B) would fail
// the bound.
func TestDecodeHeapPerUnit(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy views need a little-endian host")
	}
	const units, perUnit = 20_000, 104
	spec := synth.DefaultTrace(units, 3)
	spec.Depth, spec.Snapshots = 5, 5
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bin); err != nil { // warm the engine and obs paths
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec, err := Decode(bin)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(dec)
	got := (after.TotalAlloc - before.TotalAlloc) / units
	t.Logf("Decode allocated %d B per unit", got)
	if got > perUnit {
		t.Fatalf("Decode allocated %d B per unit, want at most %d", got, perUnit)
	}
}
