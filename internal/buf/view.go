package buf

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// This file is the module's one use of unsafe. It lets a cold fragment
// load copy its bytes once, from the file into one word-aligned buffer,
// and then read the index vectors and the values where they lie. A view
// is taken only on a little-endian host and at an 8-aligned address;
// anywhere else the same call copies, so every host sees the same
// values.

// littleEndian reports whether the host's uint64 has the byte order the
// buffers are written in.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordAligned reports whether b's first byte lies on an 8-byte boundary.
func wordAligned(b []byte) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// Aligned returns n zeroed bytes whose byte at offset at lies on an
// 8-byte boundary. The bytes are backed by a []uint64, so the garbage
// collector owns them like any slice: a view into them stays valid for
// as long as it is reachable.
func Aligned(n, at int) []byte {
	lead := (8 - at%8) % 8
	words := make([]uint64, (lead+n+7)/8)
	all := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
	return all[lead : lead+n : lead+n]
}

// U64View reads n uint64 values without a length prefix, as RawU64s
// does, but returns a view of the buffer instead of a copy when the host
// is little-endian and the values start on an 8-byte boundary. The view
// shares the buffer: nobody may mutate or recycle the buffer while the
// view is in use. Its values, errors and offsets are RawU64s's.
func (r *Reader) U64View(n uint64) []uint64 {
	if r.err != nil || n == 0 || !littleEndian || n > uint64(len(r.b)-r.off)/8 || !wordAligned(r.b[r.off:]) {
		return r.RawU64s(n)
	}
	v := unsafe.Slice((*uint64)(unsafe.Pointer(&r.b[r.off])), n)
	r.off += 8 * int(n)
	return v
}

// F64View returns the len(b)/8 little-endian float64s b holds: a view of
// b where U64View would take one, a fresh slice otherwise (an empty b
// included). The same sharing rule applies.
func F64View(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 || !littleEndian || !wordAligned(b) {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n)
}
