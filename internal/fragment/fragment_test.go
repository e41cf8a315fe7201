package fragment

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

func sample() *Fragment {
	f := &Fragment{
		Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9},
		Values:  []float64{1.5, -2, 0},
	}
	f.Kind = core.Linear
	f.Codec = compress.None
	f.Shape = tensor.Shape{8, 8}
	f.NNZ = 3
	f.BBox = tensor.BBox{Min: []uint64{0, 1}, Max: []uint64{5, 7}}
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sample()
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != f.Kind || got.NNZ != f.NNZ || !got.Shape.Equal(f.Shape) {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if string(got.Payload) != string(f.Payload) {
		t.Fatal("payload mismatch")
	}
	for i, v := range f.Values {
		if got.Values[i] != v {
			t.Fatal("values mismatch")
		}
	}
	for d := 0; d < 2; d++ {
		if got.BBox.Min[d] != f.BBox.Min[d] || got.BBox.Max[d] != f.BBox.Max[d] {
			t.Fatal("bbox mismatch")
		}
	}
	if got.Bytes != int64(len(data)) {
		t.Fatalf("Bytes = %d, want %d", got.Bytes, len(data))
	}
}

func TestEveryCodecRoundTrips(t *testing.T) {
	for _, c := range compress.All() {
		f := sample()
		f.Codec = c.ID()
		// A payload the codecs can shrink: sorted u64-ish bytes.
		f.Payload = make([]byte, 800)
		for i := range f.Payload {
			f.Payload[i] = byte(i / 64)
		}
		data, err := Encode(f)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if string(got.Payload) != string(f.Payload) {
			t.Fatalf("%s: payload mismatch", c.Name())
		}
		if got.Codec != c.ID() {
			t.Fatalf("%s: codec id lost", c.Name())
		}
	}
}

func TestEmptyFragment(t *testing.T) {
	f := &Fragment{}
	f.Kind = core.COO
	f.Shape = tensor.Shape{4, 4}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ != 0 || len(got.Values) != 0 || len(got.Payload) != 0 {
		t.Fatalf("decoded empty fragment: %+v", got)
	}
}

func TestEncodeValidation(t *testing.T) {
	f := sample()
	f.Kind = core.Kind(77)
	if _, err := Encode(f); err == nil {
		t.Error("invalid kind accepted")
	}
	f = sample()
	f.NNZ = 5 // != len(Values)
	if _, err := Encode(f); err == nil {
		t.Error("nnz/values mismatch accepted")
	}
	f = sample()
	f.Shape = tensor.Shape{0}
	if _, err := Encode(f); err == nil {
		t.Error("invalid shape accepted")
	}
	f = sample()
	f.BBox = tensor.BBox{Min: []uint64{0}, Max: []uint64{1}}
	if _, err := Encode(f); err == nil {
		t.Error("bbox rank mismatch accepted")
	}
	f = sample()
	f.Codec = compress.ID(99)
	if _, err := Encode(f); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must be caught by the CRC (or by
	// structural validation before it).
	for i := 0; i < len(data); i += 7 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	// Truncations.
	for _, cut := range []int{1, 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil input: %v", err)
	}
}

func TestOpenAtRejectsBadVersionAndKind(t *testing.T) {
	open := func(b []byte) error {
		_, err := OpenAt(bytes.NewReader(b), int64(len(b)))
		return err
	}
	data, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[4] = 0xFF // version low byte
	if err := open(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad version: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[6] = 0xEE // reserved field, covered by the preamble CRC
	if err := open(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt reserved field: %v", err)
	}
	// A bad kind byte sits at the head of the header section; flipping
	// it must trip the header CRC (and the kind check behind it).
	bad = append([]byte(nil), data...)
	bad[preambleSize] = 0xEE
	if err := open(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad kind: %v", err)
	}
}

// TestRoundTripQuick property-tests encode/decode over random fragments.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, nnz8 uint8, payload []byte, codecSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nnz := int(nnz8) % 50
		frag := &Fragment{Payload: payload, Values: make([]float64, nnz)}
		frag.Kind = core.PaperKinds()[rng.Intn(5)]
		frag.Codec = compress.ID(codecSel % 3)
		frag.Shape = tensor.Shape{16, 16, 16}
		frag.NNZ = uint64(nnz)
		if nnz > 0 {
			frag.BBox = tensor.BBox{Min: []uint64{0, 0, 0}, Max: []uint64{15, 15, 15}}
			for i := range frag.Values {
				frag.Values[i] = rng.NormFloat64()
			}
		}
		data, err := Encode(frag)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if got.Kind != frag.Kind || got.NNZ != frag.NNZ || string(got.Payload) != string(frag.Payload) {
			return false
		}
		for i := range frag.Values {
			if got.Values[i] != frag.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeGarbageNeverPanicsQuick: random bytes must error, not panic.
func TestDecodeGarbageNeverPanicsQuick(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = Decode(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendEncodeReuse: AppendEncode into a recycled dirty buffer must
// produce bytes identical to a fresh Encode — including the zeroed
// reserved preamble field, which a reused buffer would otherwise leak
// garbage into — and must reuse the buffer's capacity when it fits.
func TestAppendEncodeReuse(t *testing.T) {
	f := sample()
	want, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]byte, len(want)+64)
	for i := range dirty {
		dirty[i] = 0xAA
	}
	got, err := AppendEncode(dirty, f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("AppendEncode into reused buffer differs from Encode")
	}
	if &got[0] != &dirty[0] {
		t.Fatal("AppendEncode allocated despite sufficient capacity")
	}
	// Undersized buffer: grows, still identical.
	got2, err := AppendEncode(make([]byte, 0, 8), f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != string(want) {
		t.Fatal("AppendEncode with grow differs from Encode")
	}
	if _, err := Decode(got); err != nil {
		t.Fatal(err)
	}
}
