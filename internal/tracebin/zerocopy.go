package tracebin

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The zero-copy column views. A tracebin column section is a contiguous
// little-endian array, so on a little-endian host whose buffer happens
// to be suitably aligned (Go's allocator aligns every []byte we read
// from disk far beyond the 8 bytes the widest column needs) the decoder
// can reinterpret the raw bytes as the typed slice the pipeline wants —
// no per-unit allocation, no copy, the file bytes ARE the matrix. Every
// view helper runs a three-part gate (host endianness, element-size
// divisibility, base-pointer alignment) and the callers fall back to a
// portable copying read when any part fails, so big-endian or oddly
// aligned inputs decode to bit-identical values through the slow path.

// hostLittleEndian reports the byte order of this process.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// forceCopy disables the zero-copy views. Tests set it to exercise the
// portable decode path on little-endian hosts; production code never
// touches it.
var forceCopy = false

// viewable reports whether b can be reinterpreted as elements of the
// given size and alignment.
func viewable(b []byte, size int) bool {
	if forceCopy || !hostLittleEndian {
		return false
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(size) == 0
}

// col32 returns a section of 4-byte elements (i32 or u32 on disk) as
// []T, zero-copy when possible. len(b) must already be a multiple of 4.
func col32[T ~int32 | ~uint32](b []byte) []T {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if viewable(b, 4) {
		obsZeroCopyCols.Inc()
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	obsCopiedCols.Inc()
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// uint64Col returns the section as []uint64, zero-copy when possible.
// len(b) must already be a multiple of 8.
func uint64Col(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if viewable(b, 8) {
		obsZeroCopyCols.Inc()
		return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	obsCopiedCols.Inc()
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// float64Col returns the section as []float64, zero-copy when possible.
// len(b) must already be a multiple of 8.
func float64Col(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if viewable(b, 8) {
		obsZeroCopyCols.Inc()
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	obsCopiedCols.Inc()
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// intCol returns the section (stored as u64 little-endian) as []int,
// zero-copy on 64-bit hosts when possible. Values above MaxInt come
// back negative either way; the structural validation the callers run
// (monotone chains anchored at 0) rejects them.
func intCol(b []byte) []int {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if strconvIntSize == 64 && viewable(b, 8) {
		obsZeroCopyCols.Inc()
		return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(b))), n)
	}
	obsCopiedCols.Inc()
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// strconvIntSize mirrors strconv.IntSize without the import.
const strconvIntSize = 32 << (^uint(0) >> 63)
