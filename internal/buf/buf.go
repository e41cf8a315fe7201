// Package buf implements the little-endian binary serialization used by
// every storage organization's payload and by the fragment codec. The
// paper's BUILD functions end by concatenating their vectors "into a
// single buffer" (Algorithms 1 and 2, last lines); Writer and Reader are
// that concatenation, with length prefixes so the READ side can split
// the buffer back apart.
package buf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("buf: truncated buffer")

// Writer accumulates a little-endian binary buffer.
type Writer struct {
	b []byte
}

// NewWriter returns a writer with the given capacity hint in bytes.
func NewWriter(capHint int) *Writer {
	if capHint < 0 {
		capHint = 0
	}
	return &Writer{b: make([]byte, 0, capHint)}
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.b) }

// Reset discards the accumulated bytes but keeps the underlying
// capacity, so a recycled writer (see GetWriter/PutWriter) serializes
// into memory it already owns.
func (w *Writer) Reset() { w.b = w.b[:0] }

// Bytes returns the accumulated buffer. The writer retains ownership; do
// not write after taking the result.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// U64s appends a length-prefixed uint64 vector.
func (w *Writer) U64s(v []uint64) {
	w.U64(uint64(len(v)))
	w.RawU64s(v)
}

// RawU64s appends a uint64 vector without a length prefix.
func (w *Writer) RawU64s(v []uint64) {
	off := len(w.b)
	w.b = append(w.b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(w.b[off+8*i:], x)
	}
}

// F64s appends a length-prefixed float64 vector.
func (w *Writer) F64s(v []float64) {
	w.U64(uint64(len(v)))
	off := len(w.b)
	w.b = append(w.b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(w.b[off+8*i:], math.Float64bits(x))
	}
}

// Bytes32 appends a length-prefixed byte slice (uint32 length).
func (w *Writer) Bytes32(v []byte) {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// String32 appends a length-prefixed string (uint32 length); the bytes
// are those Bytes32([]byte(v)) writes, without the conversion's copy.
func (w *Writer) String32(v string) {
	w.U32(uint32(len(v)))
	w.b = append(w.b, v...)
}

// Raw appends bytes without a length prefix.
func (w *Writer) Raw(v []byte) { w.b = append(w.b, v...) }

// Extend appends n bytes and returns them for the caller to fill: a
// header patched once its payload is known, or a buffer a read lands
// in. They start zeroed.
func (w *Writer) Extend(n int) []byte {
	off := len(w.b)
	w.b = append(w.b, make([]byte, n)...)
	return w.b[off:]
}

// Reader consumes a buffer produced by Writer. Errors are sticky: after
// the first failure every read returns zero values and Err reports the
// failure, so decoding code can run straight-line and check once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a buffer for reading.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrTruncated, n, r.off, len(r.b)-r.off)
		return true
	}
	return false
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if r.fail(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// U64s reads a length-prefixed uint64 vector.
func (r *Reader) U64s() []uint64 {
	n := r.U64()
	return r.RawU64s(n)
}

// RawU64s reads n uint64 values without a length prefix.
func (r *Reader) RawU64s(n uint64) []uint64 {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off)/8 {
		r.err = fmt.Errorf("%w: vector of %d uint64s at offset %d exceeds buffer", ErrTruncated, n, r.off)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

// F64s reads a length-prefixed float64 vector.
func (r *Reader) F64s() []float64 {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off)/8 {
		r.err = fmt.Errorf("%w: vector of %d float64s at offset %d exceeds buffer", ErrTruncated, n, r.off)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

// Bytes32 reads a length-prefixed byte slice (uint32 length). The result
// aliases the underlying buffer.
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.fail(n) {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Expect consumes and verifies a fixed marker value, failing the reader
// on mismatch. Used for format magic numbers.
func (r *Reader) Expect(marker uint32, what string) {
	got := r.U32()
	if r.err == nil && got != marker {
		r.err = fmt.Errorf("buf: bad %s marker: got %#x want %#x", what, got, marker)
	}
}
