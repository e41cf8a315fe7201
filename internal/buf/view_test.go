package buf

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// addr is the address of b's first element.
func addr[T any](b []T) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(b))) }

// inside reports whether v's elements lie within b's bytes.
func inside[T any](v []T, b []byte) bool {
	size := uintptr(len(v)) * unsafe.Sizeof(*new(T))
	return len(v) > 0 && addr(v) >= addr(b) && addr(v)+size <= addr(b)+uintptr(len(b))
}

func TestAligned(t *testing.T) {
	for at := 0; at < 17; at++ {
		for _, n := range []int{at + 1, at + 8, at + 61} {
			b := Aligned(n, at)
			if len(b) != n || cap(b) != n {
				t.Fatalf("Aligned(%d, %d): len %d cap %d", n, at, len(b), cap(b))
			}
			if addr(b[at:])%8 != 0 {
				t.Fatalf("Aligned(%d, %d): byte %d at %#x", n, at, at, addr(b[at:]))
			}
			if slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
				t.Fatalf("Aligned(%d, %d) is not zeroed", n, at)
			}
		}
	}
}

// u64Vector is an 8-byte header followed by vals, placed at byte shift
// of a word-aligned buffer.
func u64Vector(vals []uint64, shift int) []byte {
	w := NewWriter(0)
	w.U64(uint64(len(vals)))
	w.RawU64s(vals)
	b := Aligned(shift+w.Len(), 0)[shift:]
	copy(b, w.Bytes())
	return b
}

// TestU64ViewMatchesRawU64s: on an aligned vector U64View aliases the
// buffer (on a little-endian host); shifted by 1–7 bytes it copies. The
// values, the offset it leaves and the capacity are RawU64s's either way.
func TestU64ViewMatchesRawU64s(t *testing.T) {
	vals := []uint64{0, 1, math.MaxUint64, 42, 1 << 40}
	for shift := 0; shift < 8; shift++ {
		b := u64Vector(vals, shift)
		view, raw := NewReader(b), NewReader(b)
		view.U64()
		raw.U64()
		got, want := view.U64View(uint64(len(vals))), raw.RawU64s(uint64(len(vals)))
		if view.Err() != nil || !slices.Equal(got, want) || !slices.Equal(got, vals) {
			t.Fatalf("shift %d: U64View = %v (err %v), RawU64s = %v", shift, got, view.Err(), want)
		}
		if view.Remaining() != raw.Remaining() || cap(got) != len(got) {
			t.Fatalf("shift %d: remaining %d vs %d, cap %d", shift, view.Remaining(), raw.Remaining(), cap(got))
		}
		if aliased, wantAlias := inside(got, b), shift == 0 && littleEndian; aliased != wantAlias {
			t.Fatalf("shift %d: view aliases the buffer %v, want %v", shift, aliased, wantAlias)
		}
	}
}

func TestU64ViewEmpty(t *testing.T) {
	r := NewReader(Aligned(8, 0))
	if v := r.U64View(0); v == nil || len(v) != 0 || r.Err() != nil || r.Remaining() != 8 {
		t.Fatalf("U64View(0) = %#v, err %v, remaining %d", v, r.Err(), r.Remaining())
	}
}

// TestU64ViewTruncation: a vector running past the buffer fails exactly
// as RawU64s does, aligned or not, and the failure is sticky.
func TestU64ViewTruncation(t *testing.T) {
	vals := []uint64{7, 8, 9}
	for shift := 0; shift < 8; shift++ {
		b := u64Vector(vals, shift)
		for _, n := range []uint64{4, math.MaxUint64 / 8, math.MaxUint64} {
			view, raw := NewReader(b), NewReader(b)
			view.U64()
			raw.U64()
			got, want := view.U64View(n), raw.RawU64s(n)
			if got != nil || want != nil || view.Err() == nil || view.Err().Error() != raw.Err().Error() {
				t.Fatalf("shift %d n %d: U64View %v err %v, RawU64s %v err %v", shift, n, got, view.Err(), want, raw.Err())
			}
			if v := view.U64View(1); v != nil {
				t.Fatalf("shift %d: read after a failure returned %v", shift, v)
			}
		}
	}
}

func TestF64View(t *testing.T) {
	vals := []float64{0, -1.5, math.MaxFloat64, math.Inf(1), math.SmallestNonzeroFloat64}
	w := NewWriter(0)
	for _, v := range vals {
		w.F64(v)
	}
	for shift := 0; shift < 8; shift++ {
		b := Aligned(shift+w.Len(), 0)[shift:]
		copy(b, w.Bytes())
		got := F64View(b)
		if !slices.Equal(got, vals) || cap(got) != len(got) {
			t.Fatalf("shift %d: F64View = %v (cap %d), want %v", shift, got, cap(got), vals)
		}
		if aliased, wantAlias := inside(got, b), shift == 0 && littleEndian; aliased != wantAlias {
			t.Fatalf("shift %d: view aliases the buffer %v, want %v", shift, aliased, wantAlias)
		}
	}
	if v := F64View(Aligned(0, 0)); v == nil || len(v) != 0 {
		t.Fatalf("F64View(empty) = %#v", v)
	}
}
