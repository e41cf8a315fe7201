package buf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Fatalf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xBEEF {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 = %v", got)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestVectorRoundTrip(t *testing.T) {
	u := []uint64{0, 1, math.MaxUint64, 42}
	f := []float64{0, -1.5, math.MaxFloat64}
	w := NewWriter(0)
	w.U64s(u)
	w.F64s(f)
	w.U64s(nil)
	w.F64s(nil)

	r := NewReader(w.Bytes())
	gu := r.U64s()
	gf := r.F64s()
	eu := r.U64s()
	ef := r.F64s()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(gu) != len(u) || gu[2] != math.MaxUint64 {
		t.Fatalf("U64s = %v", gu)
	}
	if len(gf) != len(f) || gf[1] != -1.5 {
		t.Fatalf("F64s = %v", gf)
	}
	if len(eu) != 0 || len(ef) != 0 {
		t.Fatalf("empty vectors = %v, %v", eu, ef)
	}
}

func TestRawU64s(t *testing.T) {
	w := NewWriter(0)
	w.RawU64s([]uint64{7, 8, 9})
	r := NewReader(w.Bytes())
	got := r.RawU64s(3)
	if r.Err() != nil || got[0] != 7 || got[2] != 9 {
		t.Fatalf("RawU64s = %v, err=%v", got, r.Err())
	}
}

func TestBytes32(t *testing.T) {
	w := NewWriter(0)
	w.Bytes32([]byte("hello"))
	w.Bytes32(nil)
	r := NewReader(w.Bytes())
	if got := string(r.Bytes32()); got != "hello" {
		t.Fatalf("Bytes32 = %q", got)
	}
	if got := r.Bytes32(); len(got) != 0 {
		t.Fatalf("empty Bytes32 = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestTruncationIsSticky(t *testing.T) {
	w := NewWriter(0)
	w.U16(7)
	r := NewReader(w.Bytes())
	if r.U64() != 0 {
		t.Fatal("truncated read returned data")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}
	// Every subsequent read keeps failing and returns zero values.
	if r.U8() != 0 || r.U16() != 0 || r.U64s() != nil || r.F64s() != nil || r.Bytes32() != nil {
		t.Fatal("sticky error did not zero subsequent reads")
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err changed to %v", r.Err())
	}
}

func TestVectorHugeCountRejected(t *testing.T) {
	// A length prefix far beyond the buffer must fail cleanly rather
	// than attempt a giant allocation.
	w := NewWriter(0)
	w.U64(math.MaxUint64) // vector "length"
	r := NewReader(w.Bytes())
	if got := r.U64s(); got != nil {
		t.Fatalf("U64s = %v", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v", r.Err())
	}

	w2 := NewWriter(0)
	w2.U64(math.MaxUint64)
	r2 := NewReader(w2.Bytes())
	if got := r2.F64s(); got != nil || !errors.Is(r2.Err(), ErrTruncated) {
		t.Fatalf("F64s = %v, err=%v", got, r2.Err())
	}

	r3 := NewReader(w.Bytes())
	if got := r3.RawU64s(1 << 60); got != nil || !errors.Is(r3.Err(), ErrTruncated) {
		t.Fatalf("RawU64s = %v, err=%v", got, r3.Err())
	}
}

func TestExpect(t *testing.T) {
	w := NewWriter(0)
	w.U32(0xCAFE)
	r := NewReader(w.Bytes())
	r.Expect(0xCAFE, "magic")
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	r2 := NewReader(w.Bytes())
	r2.Expect(0xBEEF, "magic")
	if r2.Err() == nil {
		t.Fatal("Expect accepted wrong marker")
	}
}

func TestWriterLen(t *testing.T) {
	w := NewWriter(-5) // negative hint is clamped
	if w.Len() != 0 {
		t.Fatalf("Len = %d", w.Len())
	}
	w.U32(1)
	if w.Len() != 4 {
		t.Fatalf("Len = %d", w.Len())
	}
}

// TestMixedRoundTripQuick property-tests that a random sequence of
// sections round-trips exactly.
func TestMixedRoundTripQuick(t *testing.T) {
	f := func(a uint64, us []uint64, fs []float64, bs []byte, b uint8) bool {
		w := NewWriter(0)
		w.U64(a)
		w.U64s(us)
		w.Bytes32(bs)
		w.F64s(fs)
		w.U8(b)

		r := NewReader(w.Bytes())
		if r.U64() != a {
			return false
		}
		gu := r.U64s()
		gb := r.Bytes32()
		gf := r.F64s()
		if r.U8() != b || r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		if len(gu) != len(us) || len(gb) != len(bs) || len(gf) != len(fs) {
			return false
		}
		for i := range us {
			if gu[i] != us[i] {
				return false
			}
		}
		for i := range bs {
			if gb[i] != bs[i] {
				return false
			}
		}
		for i := range fs {
			// NaN round-trips bit-exactly but compares unequal.
			if gf[i] != fs[i] && !(math.IsNaN(gf[i]) && math.IsNaN(fs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWriterResetAndPool: Reset keeps capacity; pooled writers start
// empty and grow to the requested hint.
func TestWriterResetAndPool(t *testing.T) {
	w := NewWriter(0)
	w.U64(42)
	c := cap(w.Bytes())
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.U64(7)
	if cap(w.Bytes()) != c {
		t.Fatalf("Reset dropped capacity: %d -> %d", c, cap(w.Bytes()))
	}
	if got := NewReader(w.Bytes()).U64(); got != 7 {
		t.Fatalf("reused writer encoded %d", got)
	}

	p := GetWriter(128)
	if p.Len() != 0 || cap(p.Bytes()) < 128 {
		t.Fatalf("pooled writer len=%d cap=%d", p.Len(), cap(p.Bytes()))
	}
	p.U32(0xFEED)
	PutWriter(p)
	q := GetWriter(0)
	if q.Len() != 0 {
		t.Fatalf("recycled writer not reset: len=%d", q.Len())
	}
	PutWriter(q)
	PutWriter(nil) // must not panic
}

// TestWriterPoolSizeClasses: a writer comes from the class that holds
// its hint, so a small frame never takes the buffer a large one left
// behind, and a hint past the largest class is served exactly.
func TestWriterPoolSizeClasses(t *testing.T) {
	big := GetWriter(40 << 10)
	if cap(big.Bytes()) < 40<<10 {
		t.Fatalf("GetWriter(40 KiB) cap %d", cap(big.Bytes()))
	}
	PutWriter(big)
	for _, hint := range []int{0, 1, 100, 256, 257, 4000} {
		w := GetWriter(hint)
		if c := cap(w.Bytes()); c < hint || c >= 16<<10 {
			t.Errorf("GetWriter(%d) cap %d, want at least the hint and no 40 KiB buffer", hint, c)
		}
		PutWriter(w)
	}
	if w := GetWriter(3 << 20); cap(w.Bytes()) != 3<<20 {
		t.Errorf("GetWriter(3 MiB) cap %d, want exactly 3 MiB", cap(w.Bytes()))
	}
}
