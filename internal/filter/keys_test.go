package filter

import (
	"bytes"
	"math/rand"
	"testing"

	"sparseart/internal/tensor"
)

// keysOf builds a key filter over n distinct random points of a 64³
// tile, the shape of a point_wire fragment, and returns it with the
// set of linear addresses it holds.
func keysOf(t *testing.T, rng *rand.Rand, n int) (*Keys, *tensor.Linearizer, map[uint64]bool) {
	t.Helper()
	lin, err := tensor.NewLinearizer(tensor.Shape{64, 64, 64}, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(3, n)
	held := map[uint64]bool{}
	for len(held) < n {
		p := []uint64{rng.Uint64() % 64, rng.Uint64() % 64, rng.Uint64() % 64}
		if a := lin.Linearize(p); !held[a] {
			held[a] = true
			c.Append(p...)
		}
	}
	return BuildKeys(c, lin), lin, held
}

func TestBuildKeysEmptyReturnsNil(t *testing.T) {
	lin, err := tensor.NewLinearizer(tensor.Shape{4, 4}, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if ks := BuildKeys(tensor.NewCoords(2, 0), lin); ks != nil {
		t.Fatalf("BuildKeys on empty coords = %v, want nil", ks)
	}
}

// Every address fed to BuildKeys passes, at every fragment size.
func TestKeysNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 312, 5000} {
		ks, _, held := keysOf(t, rng, n)
		for a := range held {
			if !ks.MayContain(a) {
				t.Fatalf("n=%d: false negative at address %d", n, a)
			}
		}
	}
}

// At keyBitsPerKey the measured false-positive rate over 10⁵ absent
// keys stays at or under 2 % (≈ 0.8 % expected).
func TestKeysFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 312, 1000} {
		ks, _, held := keysOf(t, rng, n)
		fp, trials := 0, 0
		for trials < 100000 {
			a := rng.Uint64() % (64 * 64 * 64)
			if held[a] {
				continue
			}
			trials++
			if ks.MayContain(a) {
				fp++
			}
		}
		if rate := float64(fp) / float64(trials); rate > 0.02 {
			t.Fatalf("n=%d: false-positive rate %.4f over %d absent keys, want ≤ 0.02", n, rate, trials)
		}
		if got, want := ks.EncodedSize(), 5+(n*keyBitsPerKey+7)/8; got != want {
			t.Fatalf("n=%d: %d encoded bytes, want %d", n, got, want)
		}
	}
}

func TestKeysEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ks, _, _ := keysOf(t, rng, 312)
	enc := ks.Encode()
	if len(enc) != ks.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", ks.EncodedSize(), len(enc))
	}
	got, err := DecodeKeys(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("DecodeKeys/Encode round trip changed bytes")
	}
	for a := uint64(0); a < 64*64*64; a++ {
		if ks.MayContain(a) != got.MayContain(a) {
			t.Fatalf("decoded filter disagrees on address %d", a)
		}
	}
}

func TestDecodeKeysRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ks, _, _ := keysOf(t, rng, 40)
	enc := ks.Encode()
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return b[:0] }},
		{"header only", func(b []byte) []byte { return b[:5] }},
		{"truncated header", func(b []byte) []byte { return b[:3] }},
		{"truncated words", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
		{"zero hashes", func(b []byte) []byte { b[0] = 0; return b }},
		{"too many hashes", func(b []byte) []byte { b[0] = maxKeyHashes + 1; return b }},
		{"no bits", func(b []byte) []byte { return []byte{keyHashes, 0, 0, 0, 0} }},
		{"implausible bit count", func(b []byte) []byte { b[1], b[2], b[3], b[4] = 0xff, 0xff, 0xff, 0xff; return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeKeys(tc.mut(append([]byte(nil), enc...))); err == nil {
				t.Fatal("DecodeKeys accepted a corrupted filter")
			}
		})
	}
}

// BuildKeys is a function of the point set: insertion order does not
// change the bytes.
func TestBuildKeysDeterministic(t *testing.T) {
	lin, err := tensor.NewLinearizer(tensor.Shape{1 << 20, 1 << 20}, tensor.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a, b := tensor.NewCoords(2, 0), tensor.NewCoords(2, 0)
	pts := make([][]uint64, 200)
	for i := range pts {
		pts[i] = []uint64{rng.Uint64() % (1 << 20), rng.Uint64() % (1 << 20)}
		a.Append(pts[i]...)
	}
	for i := len(pts) - 1; i >= 0; i-- {
		b.Append(pts[i]...)
	}
	if !bytes.Equal(BuildKeys(a, lin).Encode(), BuildKeys(b, lin).Encode()) {
		t.Fatal("BuildKeys not order-independent")
	}
}
