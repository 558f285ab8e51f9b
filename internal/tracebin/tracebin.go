// Package tracebin implements SimProf's flat columnar binary trace
// format (magic "SPTB"). A tracebin file is a 16-byte header, a section
// table, and a sequence of 8-byte-aligned little-endian column
// sections: one contiguous array per unit attribute (threads, indexes,
// start cycles, counters, quality flags; a unit's id is its position),
// length-prefixed blobs for the method table, CSR-style offset arrays
// for the variable-length snapshot and stage data, and a pre-computed
// per-unit method-frequency matrix in CSR layout. The decoder slices
// columns directly out of the input buffer (zero-copy on aligned
// little-endian hosts, a portable copying fallback elsewhere): the
// frame, frame-offset and stage sections become the trace's columns and
// each unit row gets only its spans of them, so decoding a 100k-unit
// trace costs a handful of allocations plus the pointer-free unit array,
// and phase formation can adopt the frequency matrix without re-walking
// any stacks.
//
// Decode checks only what guards its own reads and slices (section
// presence and sizes, the CRC, the method-name offsets, the frequency
// matrix's CSR structure and values) and leaves every trace invariant,
// the units' snapshot and stage spans included, to
// trace.ValidateHeader and trace.ValidateUnit, the two halves of
// trace.Validate, so the rule is stated once for both decoders.
//
// Layout, from byte 0:
//
//	[0:4)   magic "SPTB"
//	[4:8)   u32 version (currently 1)
//	[8:12)  u32 CRC-32C (Castagnoli) of everything from byte 16 on
//	[12:16) u32 section count
//	[16:..) section table: per section u32 id, u32 reserved(0),
//	        u64 absolute offset, u64 byte length
//	then the sections, each padded to 8-byte alignment.
//
// Section ids 5 (unit ids) and 20 (a derived CPI column) are retired
// and never reused: the encoder no longer writes them, and the decoder
// ignores them in files that still carry them.
//
// The package registers itself with the trace format registry at init
// time, so importing it (the CLIs do) teaches trace.DecodeBytes and
// Trace.Encode the "bin" format.
package tracebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"simprof/internal/matrix"
	"simprof/internal/model"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/trace"
)

// Magic is the byte prefix identifying a tracebin stream.
const Magic = "SPTB"

// Version is the current format version.
const Version = 1

const (
	headerSize = 16
	entrySize  = 24 // section table entry
)

// Section ids. New sections get new ids; readers look sections up by
// id, reject files missing a section they need and ignore the rest,
// which is how version 1 stays simple. Ids 5 (u64[n] unit ids, which
// could only be 0..n-1) and 20 (f64[n] derived CPI, never read on
// decode) are retired: never reuse them, since files that still carry
// those sections decode by ignoring them.
const (
	secMeta      = 1  // u64 UnitInstr, u64 SnapshotEvery, u64 Seed, 3 length-prefixed strings
	secKind      = 2  // u8[m] method kinds
	secMethodOff = 3  // u32[2m+1] offsets into the method blob (class, name per method)
	secMethodStr = 4  // method blob bytes
	secThread    = 6  // i32[n]
	secIndex     = 7  // i32[n]
	secStart     = 8  // u64[n] start cycles
	secInstr     = 9  // u64[n]
	secCycles    = 10 // u64[n]
	secL1        = 11 // u64[n]
	secL2        = 12 // u64[n]
	secLLC       = 13 // u64[n]
	secQuality   = 14 // u8[n]
	secStageOff  = 15 // u32[n+1] offsets into secStageVal
	secStageVal  = 16 // i32[nStages]
	secSnapOff   = 17 // u32[n+1] offsets into secFrameOff's stacks
	secFrameOff  = 18 // u32[S+1] offsets into secFrames
	secFrames    = 19 // i32[F] method ids, the frame arena
	secFreqPtr   = 21 // u64[n+1] CSR row pointers of the frequency matrix
	secFreqCol   = 22 // i32[nnz] CSR column indices (method ids)
	secFreqVal   = 23 // f64[nnz] CSR values (frame counts)

	numSections = 21
)

// Sentinel errors for the two ways an input can be wrong before the
// format even gets a say. Both arrive wrapped with context.
var (
	// ErrFormat marks input that is not a tracebin stream at all (foreign
	// magic bytes).
	ErrFormat = errors.New("not a tracebin stream")
	// ErrTruncated marks a tracebin stream cut short of its own declared
	// structure.
	ErrTruncated = errors.New("truncated tracebin stream")
	// ErrChecksum marks a stream whose body does not match its CRC —
	// truncated or corrupted after the header.
	ErrChecksum = errors.New("tracebin checksum mismatch (file truncated or corrupted)")
)

var (
	obsEncodes = obs.NewCounter("tracebin.encodes",
		"traces encoded to the columnar binary format")
	obsDecodes = obs.NewCounter("tracebin.decodes",
		"traces decoded from the columnar binary format")
	obsDecodeErrors = obs.NewCounter("tracebin.decode_errors",
		"tracebin decodes rejected (malformed, truncated or corrupt)")
	obsDecodedBytes = obs.NewCounter("tracebin.decoded_bytes",
		"total bytes of tracebin input decoded")
	obsZeroCopyCols = obs.NewCounter("tracebin.zero_copy_columns",
		"column sections adopted as direct views of the input buffer")
	obsCopiedCols = obs.NewCounter("tracebin.copied_columns",
		"column sections read through the portable copying fallback")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// The fixed chunk grids of the parallel decode, in elements of the loop
// each one splits. A grid depends only on the input size, never on the
// worker count, and every chunk stops at its first defect, so the lowest
// failing chunk names the defect a serial scan finds first: a malformed
// input gets the same error at any worker count. Each grid holds the
// largest Table I trace in one chunk (under 1 MB, 1.6k units), so
// paper-sized inputs decode inline on the caller. The unit loop fills
// each unit, its spans included, and runs trace.ValidateUnit on it; the
// frequency-matrix check runs over the same unit grid, one matrix row
// per unit.
const (
	crcChunk  = 4 << 20 // bytes per CRC-32C chunk
	unitChunk = 1 << 14 // units per unit-loop chunk
)

func init() {
	trace.RegisterFormat(trace.Format{
		Name:   "bin",
		Magic:  Magic,
		Decode: Decode,
		Encode: Encode,
	})
}

// Encode writes the trace in tracebin format.
func Encode(t *trace.Trace, w io.Writer) error {
	data, err := Marshal(t)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Marshal serializes the trace to one tracebin buffer. The trace must
// pass Validate; the limits of the format (section payloads addressed
// by u32 offsets) are checked and reported as errors, not silently
// wrapped.
func Marshal(t *trace.Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tracebin: encode: %w", err)
	}
	n := len(t.Units)
	freq := t.CountMethods()
	var nStages, nStacks, nFrames int
	for i := range t.Units {
		nStages += t.Units[i].Stages.Len()
		nStacks += t.Units[i].Snapshots.Len()
		nFrames += len(t.Snapshots(i).Frames)
	}
	var blobLen int
	for _, mm := range t.Methods {
		blobLen += len(mm.Class) + len(mm.Name)
	}
	const maxU32 = math.MaxUint32
	if uint64(n) >= maxU32 || uint64(nStages) >= maxU32 ||
		uint64(nStacks) >= maxU32 || uint64(nFrames) >= maxU32 ||
		uint64(blobLen) >= maxU32 {
		return nil, fmt.Errorf("tracebin: encode: trace exceeds u32 section offsets (%d units, %d frames)", n, nFrames)
	}
	for i := range t.Units {
		u := &t.Units[i]
		if u.Thread > math.MaxInt32 || u.Index > math.MaxInt32 {
			return nil, fmt.Errorf("tracebin: encode: unit %d thread/index overflow int32", i)
		}
	}

	le := binary.LittleEndian
	tableEnd := headerSize + numSections*entrySize
	// Capacity estimate: the unit columns, the frames and the frequency
	// sections (8-byte row pointers, 12 bytes per cell). Counting the
	// frequency cells keeps a million-unit trace from copying its
	// ~300 MB buffer into a larger one midway.
	buf := make([]byte, tableEnd, tableEnd+32*n+8*nFrames+12*freq.NNZ()+blobLen+1024)

	type section struct {
		id       uint32
		off, len uint64
	}
	secs := make([]section, 0, numSections)
	begin := func(id uint32) {
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
		secs = append(secs, section{id: id, off: uint64(len(buf))})
	}
	end := func() {
		s := &secs[len(secs)-1]
		s.len = uint64(len(buf)) - s.off
	}

	// 1: meta.
	begin(secMeta)
	buf = le.AppendUint64(buf, t.UnitInstr)
	buf = le.AppendUint64(buf, t.SnapshotEvery)
	buf = le.AppendUint64(buf, t.Seed)
	for _, s := range []string{t.Benchmark, t.Framework, t.Input} {
		buf = le.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	end()

	// 2-4: method table.
	begin(secKind)
	for _, mm := range t.Methods {
		buf = append(buf, byte(mm.Kind))
	}
	end()
	begin(secMethodOff)
	off := uint32(0)
	buf = le.AppendUint32(buf, 0)
	for _, mm := range t.Methods {
		off += uint32(len(mm.Class))
		buf = le.AppendUint32(buf, off)
		off += uint32(len(mm.Name))
		buf = le.AppendUint32(buf, off)
	}
	end()
	begin(secMethodStr)
	for _, mm := range t.Methods {
		buf = append(buf, mm.Class...)
		buf = append(buf, mm.Name...)
	}
	end()

	// 6-14: fixed-width unit columns.
	begin(secThread)
	for i := range t.Units {
		buf = le.AppendUint32(buf, uint32(int32(t.Units[i].Thread)))
	}
	end()
	begin(secIndex)
	for i := range t.Units {
		buf = le.AppendUint32(buf, uint32(int32(t.Units[i].Index)))
	}
	end()
	begin(secStart)
	for i := range t.Units {
		buf = le.AppendUint64(buf, t.Units[i].StartCycle)
	}
	end()
	for _, col := range []struct {
		id  uint32
		get func(*trace.Counters) uint64
	}{
		{secInstr, func(c *trace.Counters) uint64 { return c.Instructions }},
		{secCycles, func(c *trace.Counters) uint64 { return c.Cycles }},
		{secL1, func(c *trace.Counters) uint64 { return c.L1Misses }},
		{secL2, func(c *trace.Counters) uint64 { return c.L2Misses }},
		{secLLC, func(c *trace.Counters) uint64 { return c.LLCMisses }},
	} {
		begin(col.id)
		for i := range t.Units {
			buf = le.AppendUint64(buf, col.get(&t.Units[i].Counters))
		}
		end()
	}
	begin(secQuality)
	for i := range t.Units {
		buf = append(buf, byte(t.Units[i].Quality))
	}
	end()

	// 15-16: stages (CSR offsets + flat values).
	begin(secStageOff)
	off = 0
	buf = le.AppendUint32(buf, 0)
	for i := range t.Units {
		off += uint32(t.Units[i].Stages.Len())
		buf = le.AppendUint32(buf, off)
	}
	end()
	begin(secStageVal)
	for i := range t.Units {
		for _, s := range t.Stages(i) {
			buf = le.AppendUint32(buf, uint32(s))
		}
	}
	end()

	// 17-19: snapshots (two offset levels + the frame arena).
	begin(secSnapOff)
	off = 0
	buf = le.AppendUint32(buf, 0)
	for i := range t.Units {
		off += uint32(t.Units[i].Snapshots.Len())
		buf = le.AppendUint32(buf, off)
	}
	end()
	begin(secFrameOff)
	off = 0
	buf = le.AppendUint32(buf, 0)
	for i := range t.Units {
		s := t.Snapshots(i)
		for j := 1; j < len(s.Off); j++ {
			off += s.Off[j] - s.Off[j-1]
			buf = le.AppendUint32(buf, off)
		}
	}
	end()
	begin(secFrames)
	for i := range t.Units {
		for _, id := range t.Snapshots(i).Frames {
			buf = le.AppendUint32(buf, uint32(id))
		}
	}
	end()

	// 21-23: the per-unit method-frequency matrix (Trace.CountMethods),
	// in CSR layout with method id as the column index, so a decoder can
	// hand phase formation the counts without re-walking any stacks.
	begin(secFreqPtr)
	for _, p := range freq.RowPtr {
		buf = le.AppendUint64(buf, uint64(p))
	}
	end()
	begin(secFreqCol)
	for _, c := range freq.Col {
		buf = le.AppendUint32(buf, uint32(c))
	}
	end()
	begin(secFreqVal)
	for _, v := range freq.Val {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	end()

	// Patch the section table and header, then checksum the body.
	if len(secs) != numSections {
		return nil, fmt.Errorf("tracebin: encode: wrote %d sections, want %d", len(secs), numSections)
	}
	for i, s := range secs {
		e := buf[headerSize+i*entrySize:]
		le.PutUint32(e[0:], s.id)
		le.PutUint32(e[4:], 0)
		le.PutUint64(e[8:], s.off)
		le.PutUint64(e[16:], s.len)
	}
	copy(buf[0:4], Magic)
	le.PutUint32(buf[4:], Version)
	le.PutUint32(buf[12:], numSections)
	le.PutUint32(buf[8:], crc32.Checksum(buf[headerSize:], crcTable))
	obsEncodes.Inc()
	return buf, nil
}

// Decode parses a tracebin buffer into a trace. The returned trace
// aliases data (its frame, frame-offset and stage columns and the
// frequency matrix are views into the buffer on little-endian hosts),
// so the caller must not mutate data while the trace is in use. Decode
// never panics on malformed input and never returns a trace that fails
// Validate, whose two halves it runs on the trace it builds; foreign
// bytes come back wrapping ErrFormat, short files ErrTruncated, and
// corrupt bodies ErrChecksum. A large input is
// checksummed and validated chunk-parallel on parallel.Default(); the
// trace, and the error of a malformed input, are those of a serial
// decode.
func Decode(data []byte) (*trace.Trace, error) {
	t, err := decode(data, parallel.Default())
	if err != nil {
		obsDecodeErrors.Inc()
		return nil, fmt.Errorf("tracebin: decode: %w", err)
	}
	obsDecodes.Inc()
	obsDecodedBytes.Add(int64(len(data)))
	return t, nil
}

// decode runs the chunked loops on eng; the result, and the error of a
// malformed input, do not depend on its worker count.
func decode(data []byte, eng *parallel.Engine) (*trace.Trace, error) {
	le := binary.LittleEndian
	if len(data) < 4 || string(data[0:4]) != Magic {
		return nil, fmt.Errorf("%w (missing %q magic)", ErrFormat, Magic)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(data))
	}
	if v := le.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("unsupported tracebin version %d (have %d)", v, Version)
	}
	nsec := int(le.Uint32(data[12:]))
	if nsec < 0 || nsec > 1024 {
		return nil, fmt.Errorf("implausible section count %d", nsec)
	}
	tableEnd := headerSize + nsec*entrySize
	if len(data) < tableEnd {
		return nil, fmt.Errorf("%w: section table needs %d bytes, have %d", ErrTruncated, tableEnd, len(data))
	}
	if got, want := checksum(eng, data[headerSize:]), le.Uint32(data[8:]); got != want {
		return nil, fmt.Errorf("%w: crc %#x != stored %#x", ErrChecksum, got, want)
	}

	secs := make(map[uint32][]byte, nsec)
	for i := 0; i < nsec; i++ {
		e := data[headerSize+i*entrySize:]
		id := le.Uint32(e[0:])
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("duplicate section %d", id)
		}
		if off < uint64(tableEnd) || off > uint64(len(data)) ||
			length > uint64(len(data)) || off+length > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d spans [%d, %d) of %d bytes",
				ErrTruncated, id, off, off+length, len(data))
		}
		secs[id] = data[off : off+length : off+length]
	}
	sec := func(id uint32, elem int) ([]byte, error) {
		b, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("missing section %d", id)
		}
		if elem > 0 && len(b)%elem != 0 {
			return nil, fmt.Errorf("section %d length %d not a multiple of %d", id, len(b), elem)
		}
		return b, nil
	}
	secN := func(id uint32, elem, want int) ([]byte, error) {
		b, err := sec(id, elem)
		if err != nil {
			return nil, err
		}
		if len(b) != elem*want {
			return nil, fmt.Errorf("section %d holds %d entries, want %d", id, len(b)/elem, want)
		}
		return b, nil
	}

	// Meta.
	meta, err := sec(secMeta, 0)
	if err != nil {
		return nil, err
	}
	if len(meta) < 24 {
		return nil, fmt.Errorf("meta section too short (%d bytes)", len(meta))
	}
	t := &trace.Trace{
		UnitInstr:     le.Uint64(meta[0:]),
		SnapshotEvery: le.Uint64(meta[8:]),
		Seed:          le.Uint64(meta[16:]),
	}
	rest := meta[24:]
	for _, dst := range []*string{&t.Benchmark, &t.Framework, &t.Input} {
		if len(rest) < 4 {
			return nil, fmt.Errorf("meta strings truncated")
		}
		sl := int(le.Uint32(rest))
		rest = rest[4:]
		if sl < 0 || sl > len(rest) {
			return nil, fmt.Errorf("meta string length %d exceeds section", sl)
		}
		*dst = string(rest[:sl])
		rest = rest[sl:]
	}

	// Method table.
	kinds, err := sec(secKind, 1)
	if err != nil {
		return nil, err
	}
	m := len(kinds)
	if m > math.MaxInt32 {
		return nil, fmt.Errorf("method table too large (%d)", m)
	}
	methodOffB, err := secN(secMethodOff, 4, 2*m+1)
	if err != nil {
		return nil, err
	}
	blob, err := sec(secMethodStr, 0)
	if err != nil {
		return nil, err
	}
	methodOff := col32[uint32](methodOffB)
	if err := checkMethodOffsets(methodOff, len(blob)); err != nil {
		return nil, err
	}
	t.Methods = make([]model.Method, m)
	for i := range t.Methods {
		t.Methods[i] = model.Method{
			ID:    model.MethodID(i),
			Class: string(blob[methodOff[2*i]:methodOff[2*i+1]]),
			Name:  string(blob[methodOff[2*i+1]:methodOff[2*i+2]]),
			Kind:  model.Kind(kinds[i]),
		}
	}
	if err := t.ValidateHeader(); err != nil {
		return nil, err
	}

	// Fixed-width unit columns. The thread column defines n.
	threadB, err := sec(secThread, 4)
	if err != nil {
		return nil, err
	}
	n := len(threadB) / 4
	threads := col32[int32](threadB)
	get64 := func(id uint32) ([]uint64, error) {
		b, err := secN(id, 8, n)
		if err != nil {
			return nil, err
		}
		return uint64Col(b), nil
	}
	indexB, err := secN(secIndex, 4, n)
	if err != nil {
		return nil, err
	}
	indexes := col32[int32](indexB)
	starts, err := get64(secStart)
	if err != nil {
		return nil, err
	}
	instr, err := get64(secInstr)
	if err != nil {
		return nil, err
	}
	cycles, err := get64(secCycles)
	if err != nil {
		return nil, err
	}
	l1, err := get64(secL1)
	if err != nil {
		return nil, err
	}
	l2, err := get64(secL2)
	if err != nil {
		return nil, err
	}
	llc, err := get64(secLLC)
	if err != nil {
		return nil, err
	}
	quality, err := secN(secQuality, 1, n)
	if err != nil {
		return nil, err
	}

	// Variable-length data: stages, snapshots, frames. The frame,
	// frame-offset and stage sections are the trace's columns, and each
	// unit's spans come straight from the snapshot and stage offset
	// sections: ValidateUnit checks them, and the stack offsets they
	// span, before anything reads through them. As in a trace built by
	// appending, a trace without stacks has no frame columns and an
	// empty span stays zero, so gob sees one trace however it was made.
	stageValB, err := sec(secStageVal, 4)
	if err != nil {
		return nil, err
	}
	stageOffB, err := secN(secStageOff, 4, n+1)
	if err != nil {
		return nil, err
	}
	stageOff := col32[uint32](stageOffB)
	framesB, err := sec(secFrames, 4)
	if err != nil {
		return nil, err
	}
	frameOffB, err := sec(secFrameOff, 4)
	if err != nil {
		return nil, err
	}
	snapOffB, err := secN(secSnapOff, 4, n+1)
	if err != nil {
		return nil, err
	}
	snapOff := col32[uint32](snapOffB)
	if len(frameOffB) > 4 {
		t.Frames, t.FrameOff = col32[model.MethodID](framesB), col32[uint32](frameOffB)
	}
	t.StageIDs = col32[int32](stageValB)
	t.Units = make([]trace.Unit, n)
	if err := checkChunks(eng, n, unitChunk, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			u := &t.Units[i]
			u.ID = i
			u.Thread = int(threads[i])
			u.Index = int(indexes[i])
			u.StartCycle = starts[i]
			u.Counters = trace.Counters{
				Instructions: instr[i],
				Cycles:       cycles[i],
				L1Misses:     l1[i],
				L2Misses:     l2[i],
				LLCMisses:    llc[i],
			}
			u.Quality = trace.Quality(quality[i])
			if a, b := snapOff[i], snapOff[i+1]; a != b {
				u.Snapshots = trace.Span{Lo: a, Hi: b}
			}
			if a, b := stageOff[i], stageOff[i+1]; a != b {
				u.Stages = trace.Span{Lo: a, Hi: b}
			}
			if err := t.ValidateUnit(i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// The frequency matrix, checked in one pass over the unit grid: each
	// row's pointers and columns by NewSparseCSR's rule, then its values
	// finite and positive (a NaN would poison the clustering distances
	// downstream). A chunk checks the values of the rows before its first
	// structural defect, so the lowest failing chunk reports the defect a
	// row-order scan meets first. Content consistency with the snapshot
	// columns is the encoder's contract, enforced by the round-trip
	// property tests and the golden fixture, not re-derived here — that
	// recomputation is exactly the cost this format removes.
	freqPtrB, err := secN(secFreqPtr, 8, n+1)
	if err != nil {
		return nil, err
	}
	freqColB, err := sec(secFreqCol, 4)
	if err != nil {
		return nil, err
	}
	freqValB, err := sec(secFreqVal, 8)
	if err != nil {
		return nil, err
	}
	freqPtr, freqVal := intCol(freqPtrB), float64Col(freqValB)
	sp, err := matrix.NewSparseCSR(n, m, freqPtr, col32[int32](freqColB), freqVal, func(rows matrix.RowCheck) error {
		return checkChunks(eng, n, unitChunk, func(lo, hi int) error {
			bad, err := rows(lo, hi)
			if bad > lo {
				for _, v := range freqVal[freqPtr[lo]:freqPtr[bad]] {
					if !(v > 0) || math.IsInf(v, 0) {
						return badFreqValue(v)
					}
				}
			}
			return err
		})
	})
	if err != nil {
		if !errors.As(err, new(badFreqValue)) {
			err = fmt.Errorf("frequency matrix: %w", err)
		}
		return nil, err
	}
	t.SetFreq(sp)
	return t, nil
}

// badFreqValue is the error of a frequency value that is not finite and
// positive.
type badFreqValue float64

func (v badFreqValue) Error() string {
	return fmt.Sprintf("frequency matrix holds non-positive or non-finite value %v", float64(v))
}

// checkChunks runs check over the fixed grid [0,n) of size-element
// chunks on eng and returns the error of the lowest failing chunk. An
// input that fits one chunk runs inline, off the engine.
func checkChunks(eng *parallel.Engine, n, size int, check func(lo, hi int) error) error {
	if n <= size {
		return check(0, n)
	}
	return eng.ForEachChunkErr(n, size, check)
}

// checksum is the CRC-32C of body, computed per crcChunk chunk on eng
// and combined in chunk order.
func checksum(eng *parallel.Engine, body []byte) uint32 {
	chunks := parallel.Chunks(len(body), crcChunk)
	if chunks <= 1 {
		return crc32.Checksum(body, crcTable)
	}
	crcs := make([]uint32, chunks)
	eng.ForEachChunk(len(body), crcChunk, func(c, lo, hi int) {
		crcs[c] = crc32.Checksum(body[lo:hi], crcTable)
	})
	crc := crcs[0]
	full := crcZeros(crcChunk)
	for c := 1; c < chunks-1; c++ {
		crc = full.apply(crc) ^ crcs[c]
	}
	last := len(body) - (chunks-1)*crcChunk
	return crcCombine(crc, crcs[chunks-1], last)
}

// crcCombine returns the CRC-32C of a||b from crcA = CRC(a), crcB =
// CRC(b) and lenB = len(b): zlib's crc32_combine. Appending lenB zero
// bytes to a advances its CRC register by a linear map over GF(2), and
// the pre- and post-inversion of the two CRCs cancel, so the result is
// that map applied to crcA, xor crcB.
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	op := crcZeros(lenB)
	return op.apply(crcA) ^ crcB
}

// gf2Op is a linear map on 32-bit CRC registers over GF(2): entry i is
// the image of bit i.
type gf2Op [32]uint32

func (m *gf2Op) apply(v uint32) uint32 {
	var out uint32
	for i := 0; v != 0; i, v = i+1, v>>1 {
		if v&1 != 0 {
			out ^= m[i]
		}
	}
	return out
}

// then returns the map "m, then o".
func (m *gf2Op) then(o *gf2Op) gf2Op {
	var out gf2Op
	for i := range m {
		out[i] = o.apply(m[i])
	}
	return out
}

// crcZeros returns the map that feeds n zero bytes through the
// (reflected, Castagnoli) CRC register, by repeated squaring of the
// one-byte map.
func crcZeros(n int) gf2Op {
	var bit gf2Op // one zero bit: shift right, fold the polynomial in
	bit[0] = crc32.Castagnoli
	for i := 1; i < 32; i++ {
		bit[i] = 1 << (i - 1)
	}
	pow := bit
	for i := 0; i < 3; i++ {
		pow = pow.then(&pow)
	}
	var out gf2Op // identity
	for i := range out {
		out[i] = 1 << i
	}
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			out = out.then(&pow)
		}
		pow = pow.then(&pow)
	}
	return out
}

// checkMethodOffsets checks the method-name offset column, read in
// place: it starts at 0, never decreases and ends exactly at bound, the
// blob's length, so a name sliced at two adjacent offsets stays in
// range. No trace invariant covers it: the names are strings by then.
func checkMethodOffsets(off []uint32, bound int) error {
	if off[0] != 0 {
		return fmt.Errorf("method offsets do not start at 0")
	}
	if end := off[len(off)-1]; uint64(end) != uint64(bound) {
		return fmt.Errorf("method offsets end at %d, want %d", end, bound)
	}
	for s := 1; s < len(off); s++ {
		if off[s] < off[s-1] {
			return fmt.Errorf("method offsets not monotone at %d (%d < %d)", s, off[s], off[s-1])
		}
	}
	return nil
}
