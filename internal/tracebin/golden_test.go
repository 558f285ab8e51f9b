package tracebin

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"simprof/internal/synth"
	"simprof/internal/trace"
)

// goldenTrace is the fixed input behind testdata/golden.bin. Everything
// here is deterministic, so the encoder must reproduce the committed
// bytes exactly; a diff means the format changed, which needs a version
// bump unless every file of the old layout still decodes the same.
func goldenTrace(t testing.TB) *trace.Trace {
	spec := synth.TraceSpec{
		Benchmark: "golden",
		Framework: "spark",
		Input:     "fixture",
		Units:     20,
		Methods:   24,
		Phases:    3,
		Depth:     4,
		Snapshots: 3,
		UnitInstr: 1_000_000,
		Seed:      42,
	}
	tr, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const goldenPath = "testdata/golden.bin"

// TestGoldenEncode pins the on-disk format: encoding the fixed trace
// must reproduce the committed fixture byte for byte. Run with
// UPDATE_GOLDEN=1 to regenerate after a deliberate format change
// (which must also bump Version unless old files still decode, as when
// a section is retired: TestDecodeIgnoresRetiredSections).
func TestGoldenEncode(t *testing.T) {
	got, err := Marshal(goldenTrace(t))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture (run UPDATE_GOLDEN=1 go test once to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoding diverges from the committed fixture at byte %d (%d vs %d bytes total); "+
			"a format change requires a Version bump and UPDATE_GOLDEN=1", i, len(got), len(want))
	}
}

// TestGoldenDecode: the committed fixture decodes back to the exact
// golden trace (gob-byte identity) with its frequency matrix attached.
func TestGoldenDecode(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Freq() == nil {
		t.Fatalf("fixture decode lost the frequency matrix")
	}
	want := gobBytes(t, goldenTrace(t))
	if got := gobBytes(t, dec); !bytes.Equal(got, want) {
		t.Fatalf("fixture decodes to a different trace")
	}
}

// TestHostileHeaderLayout decodes a hand-mangled worst-case header: the
// section table rewritten in reverse order with all reserved fields set
// to 0xFFFFFFFF. The format spec orders neither the table nor the
// sections, so a conforming decoder must accept this layout and produce
// the identical trace.
func TestHostileHeaderLayout(t *testing.T) {
	tr := goldenTrace(t)
	data, err := Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	mangled := append([]byte(nil), data...)
	le := binary.LittleEndian
	nsec := int(le.Uint32(mangled[12:]))
	entries := make([][]byte, nsec)
	for i := 0; i < nsec; i++ {
		e := make([]byte, entrySize)
		copy(e, mangled[headerSize+i*entrySize:])
		le.PutUint32(e[4:], 0xFFFFFFFF) // reserved: must be ignored
		entries[i] = e
	}
	for i := 0; i < nsec; i++ {
		copy(mangled[headerSize+i*entrySize:], entries[nsec-1-i])
	}
	le.PutUint32(mangled[8:], crc32.Checksum(mangled[headerSize:], crcTable))
	dec, err := Decode(mangled)
	if err != nil {
		t.Fatalf("decode of reversed-table header: %v", err)
	}
	if !bytes.Equal(gobBytes(t, dec), gobBytes(t, tr)) {
		t.Fatalf("reversed-table decode differs from original")
	}
}

// withRetiredSections returns bin laid out again in section-id order
// with the retired sections 5 (u64 unit ids) and 20 (f64 unit CPIs) of
// tr in their slots, as version 1 files written before their retirement
// carry them, and with the table and CRC fixed.
func withRetiredSections(bin []byte, tr *trace.Trace) []byte {
	le := binary.LittleEndian
	var ids, cpis []byte
	for i := range tr.Units {
		ids = le.AppendUint64(ids, uint64(i))
		cpis = le.AppendUint64(cpis, math.Float64bits(tr.Units[i].CPI()))
	}
	payload := map[uint32][]byte{5: ids, 20: cpis}
	for i := 0; i < int(le.Uint32(bin[12:])); i++ {
		e := bin[headerSize+i*entrySize:]
		off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
		payload[le.Uint32(e)] = bin[off : off+n]
	}
	order := slices.Sorted(maps.Keys(payload))
	out := make([]byte, headerSize+len(order)*entrySize)
	copy(out, bin[:headerSize])
	le.PutUint32(out[12:], uint32(len(order)))
	for i, id := range order {
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
		e := out[headerSize+i*entrySize:]
		le.PutUint32(e[0:], id)
		le.PutUint64(e[8:], uint64(len(out)))
		le.PutUint64(e[16:], uint64(len(payload[id])))
		out = append(out, payload[id]...)
	}
	fixCRC(out)
	return out
}

// TestDecodeIgnoresRetiredSections: a file that still carries the
// retired unit-id and CPI sections decodes to the same trace as the
// file without them, on the golden and a degraded trace.
func TestDecodeIgnoresRetiredSections(t *testing.T) {
	for _, tr := range []*trace.Trace{goldenTrace(t), degradedTrace(t, 200, 13)} {
		bin, err := Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		old := withRetiredSections(bin, tr)
		if got, want := binary.LittleEndian.Uint32(old[12:]), uint32(numSections+2); got != want {
			t.Fatalf("re-laid file has %d sections, want %d", got, want)
		}
		want, err := Decode(bin)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(old)
		if err != nil {
			t.Fatalf("decode with retired sections: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("retired sections changed the decoded trace")
		}
	}
}
