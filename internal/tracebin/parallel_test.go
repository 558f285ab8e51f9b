package tracebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"

	"simprof/internal/parallel"
	"simprof/internal/stats"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// TestCRCCombine: the chunk-combined checksum equals crc32.Checksum over
// the whole buffer, for random split points, empty and 1-byte pieces,
// and a buffer spanning several CRC chunks at any worker count.
func TestCRCCombine(t *testing.T) {
	rng := stats.NewRNG(5)
	buf := make([]byte, 2*crcChunk+crcChunk/2+123)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
	split := func(b []byte, at int) {
		t.Helper()
		if got, want := crcCombine(crc(b[:at]), crc(b[at:]), len(b)-at), crc(b); got != want {
			t.Fatalf("split %d of %d bytes: combined %#x, want %#x", at, len(b), got, want)
		}
	}
	small := buf[:4096]
	for i := 0; i < 64; i++ {
		split(small, rng.IntN(len(small)+1))
	}
	for _, at := range []int{0, 1, len(small) - 1, len(small)} {
		split(small, at) // empty and 1-byte pieces on either side
	}
	for _, at := range []int{0, 1, crcChunk, len(buf) - 1, len(buf)} {
		split(buf, at)
	}
	// Fold a buffer one byte at a time.
	var folded uint32
	for i := range small[:300] {
		folded = crcCombine(folded, crc(small[i:i+1]), 1)
	}
	if want := crc(small[:300]); folded != want {
		t.Fatalf("byte-by-byte fold %#x, want %#x", folded, want)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, crcChunk, crcChunk + 1, len(buf)} {
			if got, want := checksum(parallel.New(workers), buf[:n]), crc(buf[:n]); got != want {
				t.Fatalf("workers=%d, %d bytes: chunked checksum %#x, want %#x", workers, n, got, want)
			}
		}
	}
}

var gridTrace struct {
	bin []byte
	m   int
}

// gridBin is the encoding of a trace that spans at least three chunks of
// every decode grid, checked here so a grid resize cannot quietly shrink
// what the tests below cover. It is built once per test binary.
func gridBin(t *testing.T) ([]byte, int) {
	t.Helper()
	if gridTrace.bin == nil {
		spec := synth.DefaultTrace(40_000, 21)
		spec.Depth, spec.Snapshots = 5, 5
		tr, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		bin, err := Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(bin); err != nil {
			t.Fatal(err)
		}
		for _, g := range []struct {
			what     string
			n, chunk int
		}{
			{"body bytes", len(bin) - headerSize, crcChunk},
			{"units", len(tr.Units), unitChunk},
		} {
			if got := parallel.Chunks(g.n, g.chunk); got < 3 {
				t.Fatalf("grid trace: %d %s fill %d chunks of %d, want at least 3", g.n, g.what, got, g.chunk)
			}
		}
		gridTrace.bin, gridTrace.m = bin, len(tr.Methods)
	}
	return gridTrace.bin, gridTrace.m
}

// decodeAt decodes data on a fresh engine with GOMAXPROCS set to procs.
func decodeAt(procs int, data []byte) (*trace.Trace, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return decode(data, parallel.New(procs))
}

// TestDecodeBinWorkerInvariant: a trace spanning several chunks of every
// grid, the CRC's included, decodes to the identical trace at GOMAXPROCS
// 1, 2 and 8, on the zero-copy and the copying path.
func TestDecodeBinWorkerInvariant(t *testing.T) {
	bin, _ := gridBin(t)
	defer func(old bool) { forceCopy = old }(forceCopy)
	var ref *trace.Trace
	for _, copyPath := range []bool{false, true} {
		forceCopy = copyPath
		for _, procs := range []int{1, 2, 8} {
			got, err := decodeAt(procs, bin)
			if err != nil {
				t.Fatalf("copy=%v procs=%d: %v", copyPath, procs, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("copy=%v procs=%d: decoded trace differs from copy=false procs=1", copyPath, procs)
			}
		}
	}
}

// section returns the bytes of section id inside data (aliased, so
// writes through it mutate data).
func section(t testing.TB, data []byte, id uint32) []byte {
	t.Helper()
	le := binary.LittleEndian
	nsec := int(le.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		e := data[headerSize+i*entrySize:]
		if le.Uint32(e) == id {
			off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
			return data[off : off+n]
		}
	}
	t.Fatalf("no section %d", id)
	return nil
}

// TestDecodeBinFirstErrorAcrossChunks: with defects in several chunks,
// the decode reports the one a serial scan meets first — the lowest
// chunk within a loop, the earlier loop across loops, and a checksum
// mismatch before any structural defect — at every worker count. A unit's
// spans, frame ids and fields are checked in the one unit loop, so the
// lower unit chunk wins whichever check fails there. A patch of offset
// entry u breaks the span of unit u-1 first.
func TestDecodeBinFirstErrorAcrossChunks(t *testing.T) {
	good, m := gridBin(t)
	le := binary.LittleEndian
	unitA, unitB := unitChunk+3, 2*unitChunk+9
	u32 := func(b []byte, id uint32, i int) uint32 { return le.Uint32(section(t, b, id)[4*i:]) }
	put32 := func(b []byte, id uint32, i int, v uint32) { le.PutUint32(section(t, b, id)[4*i:], v) }
	// row is the index of frequency row u's first entry, and putVal
	// stores v there.
	row := func(b []byte, u int) int { return int(le.Uint64(section(t, b, secFreqPtr)[8*u:])) }
	putVal := func(b []byte, u int, v float64) {
		le.PutUint64(section(t, b, secFreqVal)[8*row(b, u):], math.Float64bits(v))
	}
	colErr := func(u int) string {
		return fmt.Sprintf("frequency matrix: matrix: NewSparseCSR row %d column %d out of order or range (cols=%d)", u, m+5, m)
	}
	// stack is the index of unit u's first snapshot in the frame-offset
	// column, and frame that of its first frame in the frame column.
	stack := func(b []byte, u int) int { return int(u32(b, secSnapOff, u)) }
	frame := func(b []byte, u int) int { return int(u32(b, secFrameOff, stack(b, u))) }
	for _, tc := range []struct {
		name    string
		mangle  func(b []byte)
		keepCRC bool
		want    func(b []byte) string
	}{
		{
			name: "frame ids, two chunks",
			mangle: func(b []byte) {
				put32(b, secFrames, frame(b, unitA), uint32(m+1))
				put32(b, secFrames, frame(b, unitB), uint32(m+2))
			},
			want: func([]byte) string {
				return fmt.Sprintf("trace: unit %d snapshot refers to method %d outside the table (%d methods)", unitA, m+1, m)
			},
		},
		{
			name: "frame offsets, two chunks",
			mangle: func(b []byte) {
				// Unit unitA-1's frames end past the frame column; unitB-1's
				// end before they start.
				put32(b, secFrameOff, stack(b, unitA), math.MaxUint32/2)
				put32(b, secFrameOff, stack(b, unitB), 0)
			},
			want: func(b []byte) string {
				return fmt.Sprintf("trace: unit %d snapshot frames [%d, %d) do not fit the %d frames",
					unitA-1, frame(b, unitA-1), math.MaxUint32/2, len(section(t, b, secFrames))/4)
			},
		},
		{
			name: "frame offsets inside a unit, two chunks",
			mangle: func(b []byte) {
				// Snapshot 2 of unitA ends before snapshot 1 does.
				s := stack(b, unitA)
				put32(b, secFrameOff, s+2, u32(b, secFrameOff, s+1)-1)
				put32(b, secFrameOff, stack(b, unitB)+1, math.MaxUint32)
			},
			want: func(b []byte) string {
				s := stack(b, unitA)
				d := u32(b, secFrameOff, s+1) - u32(b, secFrameOff, s)
				return fmt.Sprintf("trace: unit %d snapshot offsets not monotone at 2 (%d < %d)", unitA, d-1, d)
			},
		},
		{
			name: "snapshot offsets, two chunks",
			mangle: func(b []byte) {
				// Unit unitA-1's snapshot span is inverted; unitB-1's runs
				// past the stacks.
				put32(b, secSnapOff, unitA, 3)
				put32(b, secSnapOff, unitB, math.MaxUint32)
			},
			want: func(b []byte) string {
				return fmt.Sprintf("trace: unit %d snapshot span [%d, %d) is inverted", unitA-1, stack(b, unitA-1), 3)
			},
		},
		{
			name: "stage offsets, two chunks",
			mangle: func(b []byte) {
				put32(b, secStageOff, unitA, 0)
				put32(b, secStageOff, unitB, math.MaxUint32)
			},
			want: func(b []byte) string {
				return fmt.Sprintf("trace: unit %d stage span [%d, %d) is inverted", unitA-1, u32(b, secStageOff, unitA-1), 0)
			},
		},
		{
			name: "stage offset overrun, two chunks",
			mangle: func(b []byte) {
				put32(b, secStageOff, unitA, math.MaxUint32)
				put32(b, secStageOff, unitB, 0)
			},
			want: func(b []byte) string {
				return fmt.Sprintf("trace: unit %d stage span [%d, %d) runs past the %d stage ids",
					unitA-1, u32(b, secStageOff, unitA-1), uint32(math.MaxUint32), len(section(t, b, secStageVal))/4)
			},
		},
		{
			name: "units, two chunks",
			mangle: func(b []byte) {
				put32(b, secThread, unitA, math.MaxUint32)
				section(t, b, secQuality)[unitB] = 0x80
			},
			want: func(b []byte) string {
				return fmt.Sprintf("trace: unit %d has negative thread/index (%d/%d)", unitA, -1, int32(u32(b, secIndex, unitA)))
			},
		},
		{
			name: "frequency values, two chunks",
			mangle: func(b []byte) {
				putVal(b, unitA, -2)
				putVal(b, unitB, math.NaN())
			},
			want: func([]byte) string {
				return "frequency matrix holds non-positive or non-finite value -2"
			},
		},
		{
			name: "frequency structure, two chunks",
			mangle: func(b []byte) {
				// Row unitA holds an out-of-range column; row unitB-1 ends
				// before it starts.
				put32(b, secFreqCol, row(b, unitA), uint32(m+5))
				le.PutUint64(section(t, b, secFreqPtr)[8*unitB:], 0)
			},
			want: func([]byte) string { return colErr(unitA) },
		},
		{
			name: "frequency structure before a later value",
			mangle: func(b []byte) {
				put32(b, secFreqCol, row(b, unitA), uint32(m+5))
				putVal(b, unitB, 0)
			},
			want: func([]byte) string { return colErr(unitA) },
		},
		{
			name: "frequency value before a later structure defect",
			mangle: func(b []byte) {
				putVal(b, unitA, math.Inf(1))
				put32(b, secFreqCol, row(b, unitB), uint32(m+5))
			},
			want: func([]byte) string {
				return "frequency matrix holds non-positive or non-finite value +Inf"
			},
		},
		{
			name: "frequency rows in row order inside a chunk",
			mangle: func(b []byte) {
				// Both rows sit in unit chunk 1: the value defect's row
				// comes first, so a row-order scan meets it before the
				// structure defect; then the reverse.
				putVal(b, unitA, -1)
				put32(b, secFreqCol, row(b, unitA+5), uint32(m+5))
				put32(b, secFreqCol, row(b, unitB), uint32(m+5))
				putVal(b, unitB+5, -1)
			},
			want: func([]byte) string {
				return "frequency matrix holds non-positive or non-finite value -1"
			},
		},
		{
			name: "frequency structure in row order inside a chunk",
			mangle: func(b []byte) {
				put32(b, secFreqCol, row(b, unitA), uint32(m+5))
				putVal(b, unitA+5, -1)
			},
			want: func([]byte) string { return colErr(unitA) },
		},
		{
			name: "the lower unit chunk wins",
			mangle: func(b []byte) {
				put32(b, secFrames, frame(b, 3), uint32(m+4)) // unit chunk 0, its last check
				put32(b, secThread, unitB, math.MaxUint32)    // unit chunk 2, its first check
			},
			want: func([]byte) string {
				return fmt.Sprintf("trace: unit 3 snapshot refers to method %d outside the table (%d methods)", m+4, m)
			},
		},
		{
			name: "checksum before structure",
			mangle: func(b []byte) {
				put32(b, secThread, unitA, math.MaxUint32)
			},
			keepCRC: true,
			want: func(b []byte) string {
				return fmt.Sprintf("%v: crc %#x != stored %#x", ErrChecksum,
					crc32.Checksum(b[headerSize:], crcTable), le.Uint32(b[8:]))
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			tc.mangle(bad)
			if !tc.keepCRC {
				fixCRC(bad)
			}
			want := tc.want(bad)
			for _, procs := range []int{1, 2, 8} {
				_, err := decodeAt(procs, bad)
				if err == nil || err.Error() != want {
					t.Fatalf("procs=%d: got %v\nwant %s", procs, err, want)
				}
			}
			if _, err := Decode(bad); err == nil || err.Error() != "tracebin: decode: "+want {
				t.Fatalf("Decode: got %v, want the same error wrapped", err)
			}
			if tc.keepCRC {
				if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
					t.Fatalf("Decode: %v does not wrap ErrChecksum", err)
				}
			}
		})
	}
}
