package tracebin

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"simprof/internal/synth"
)

// FuzzDecodeBin mirrors the gob fuzz contract for the columnar
// decoder: no input panics it, and any input it accepts yields a trace
// that passes Validate, whose every snapshot At and every stage list
// Stages can read — plus, for
// this format, a structurally valid frequency matrix. The seed corpus
// starts from a real encoding and hand-broken variants so the fuzzer
// reaches past the header checks.
func FuzzDecodeBin(f *testing.F) {
	spec := synth.DefaultTrace(30, 17)
	spec.Methods = 32
	spec.Snapshots = 4
	tr, err := spec.Generate()
	if err != nil {
		f.Fatal(err)
	}
	good, err := Marshal(tr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:headerSize])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte(Magic))
	flipped := append([]byte(nil), good...)
	for i := 10; i < len(flipped); i += 97 {
		flipped[i] ^= 0x40
	}
	f.Add(flipped)
	// A body-corrupted file with a recomputed CRC, so the fuzzer's
	// descendants of this seed get past the checksum into the section
	// validation.
	refixed := append([]byte(nil), good...)
	for i := headerSize + 300; i < len(refixed); i += 131 {
		refixed[i] ^= 0x11
	}
	fixCRC(refixed)
	f.Add(refixed)
	// Spans that leave their columns, with a recomputed CRC: decode sets
	// the spans from the offset sections as they are, and only the trace
	// rule stands between them and an out-of-range read.
	for _, patch := range []struct {
		id  uint32
		at  int
		val uint32
	}{
		{secSnapOff, 2, 1 << 20}, {secSnapOff, 2, 0},
		{secFrameOff, 3, 1 << 20}, {secFrameOff, 3, 0},
		{secStageOff, 2, 1 << 20}, {secStageOff, len(tr.Units), 0},
	} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(section(f, bad, patch.id)[4*patch.at:], patch.val)
		fixCRC(bad)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		if err := dec.Validate(); err != nil {
			t.Fatalf("Decode returned an invalid trace: %v", err)
		}
		if sp := dec.Freq(); sp != nil {
			if sp.Rows() != len(dec.Units) || sp.Cols() != len(dec.Methods) {
				t.Fatalf("Decode attached a %dx%d frequency matrix to a %d-unit/%d-method trace",
					sp.Rows(), sp.Cols(), len(dec.Units), len(dec.Methods))
			}
		}
		if _, err := dec.Table(); err != nil {
			t.Fatalf("valid trace but Table failed: %v", err)
		}
		dec.OracleCPI()
		dec.CPIs()
		dec.Summarize()
		for i := range dec.Units {
			s := dec.Snapshots(i)
			for j := 0; j < s.Len(); j++ {
				_ = s.At(j).Leaf()
			}
			_ = dec.Stages(i)
		}
		dec.CountMethods()
	})
}

// fixCRC recomputes the header checksum of a (possibly corrupted)
// tracebin buffer in place.
func fixCRC(data []byte) {
	if len(data) < headerSize {
		return
	}
	binary.LittleEndian.PutUint32(data[8:], crc32.Checksum(data[headerSize:], crcTable))
}
