package filter

import (
	"bytes"
	"math/rand"
	"testing"

	"sparseart/internal/tensor"
)

func coordsOf(t *testing.T, dims int, pts ...[]uint64) *tensor.Coords {
	t.Helper()
	c := tensor.NewCoords(dims, 0)
	for _, p := range pts {
		c.Append(p...)
	}
	return c
}

// cell is the one-cell region at p: the window a point read would ask.
func cell(p ...uint64) tensor.Region {
	size := make([]uint64, len(p))
	for d := range size {
		size[d] = 1
	}
	return tensor.Region{Start: append([]uint64(nil), p...), Size: size}
}

// box is the region covering the inclusive bounds [lo, hi].
func box(lo, hi []uint64) tensor.Region {
	size := make([]uint64, len(lo))
	for d := range size {
		size[d] = hi[d] - lo[d] + 1
	}
	return tensor.Region{Start: lo, Size: size}
}

func TestBuildEmptyReturnsNil(t *testing.T) {
	if f := Build(tensor.NewCoords(2, 0)); f != nil {
		t.Fatalf("Build on empty coords = %v, want nil", f)
	}
}

// No false negatives: the one-cell region of every ingested point, and
// a box around it, must pass the region check — for both encodings.
func TestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		span uint64 // coordinate magnitude; > maxBitmapBits forces bloom
	}{
		{"bitmap", 1000},
		{"bloom", 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tensor.NewCoords(3, 0)
			for i := 0; i < 500; i++ {
				c.Append(rng.Uint64()%tc.span, rng.Uint64()%tc.span, rng.Uint64()%tc.span)
			}
			f := Build(c)
			for i := 0; i < c.Len(); i++ {
				p := c.At(i)
				if !f.MayOverlapRegion(cell(p...)) {
					t.Fatalf("false negative: unit region at %v", p)
				}
				lo, hi := make([]uint64, 3), make([]uint64, 3)
				for d := range p {
					lo[d] = p[d] - rng.Uint64()%min(p[d]+1, 40)
					hi[d] = p[d] + rng.Uint64()%40
				}
				if !f.MayOverlapRegion(box(lo, hi)) {
					t.Fatalf("false negative: box %v..%v around %v", lo, hi, p)
				}
			}
		})
	}
}

// Bitmap dimensions are exact: absent coordinates inside the bbox must
// be rejected.
func TestBitmapExactness(t *testing.T) {
	c := coordsOf(t, 2, []uint64{0, 0}, []uint64{10, 10}, []uint64{20, 20})
	f := Build(c)
	for _, st := range f.Stats() {
		if st.Kind != "bitmap" {
			t.Fatalf("expected bitmap encoding, got %q", st.Kind)
		}
	}
	if f.MayOverlapRegion(cell(5, 5)) {
		t.Fatal("bitmap admitted absent point (5,5)")
	}
	// dim 0 has {0,10,20}, dim 1 has {0,10,20}: both pass individually,
	// so (10,0) is an admissible false positive for a per-dimension
	// filter — the store's key filter is what dismisses it.
	if !f.MayOverlapRegion(cell(10, 0)) {
		t.Fatal("bitmap rejected (10,0), whose every coordinate is stored")
	}
	if f.MayOverlapRegion(cell(21, 21)) {
		t.Fatal("bitmap admitted out-of-range point")
	}
	// Range with no stored coordinate in dim 0: [1,9].
	if f.MayOverlapRegion(tensor.Region{Start: []uint64{1, 0}, Size: []uint64{9, 21}}) {
		t.Fatal("bitmap admitted region covering no stored dim-0 coordinate")
	}
	// Range touching a stored coordinate.
	if !f.MayOverlapRegion(tensor.Region{Start: []uint64{1, 0}, Size: []uint64{10, 1}}) {
		t.Fatal("bitmap rejected region containing stored coordinate 10")
	}
}

// The bitmap range scan must find bits in every word position,
// including bits straddling word boundaries.
func TestBitmapRangeWordBoundaries(t *testing.T) {
	for _, coord := range []uint64{0, 1, 63, 64, 65, 127, 128, 500} {
		c := coordsOf(t, 1, []uint64{0}, []uint64{coord}, []uint64{501})
		f := Build(c)
		if coord > 0 && coord < 501 {
			if !f.MayOverlapRegion(box([]uint64{1}, []uint64{500})) {
				t.Fatalf("range [1,500] missed stored coordinate %d", coord)
			}
		}
		if f.MayOverlapRegion(box([]uint64{502}, []uint64{600})) {
			t.Fatalf("range past the bitmap end admitted (coord %d)", coord)
		}
	}
}

// Bloom dimensions answer "maybe" for wide ranges but reject narrow
// ranges of absent values with high probability; verify the probing
// path returns true whenever a stored value is inside a narrow range.
func TestBloomRangeProbing(t *testing.T) {
	c := tensor.NewCoords(1, 0)
	base := uint64(1) << 40
	for i := uint64(0); i < 100; i++ {
		c.Append(base + i*1000)
	}
	f := Build(c)
	st := f.Stats()[0]
	if st.Kind != "bloom" {
		t.Fatalf("expected bloom encoding, got %q", st.Kind)
	}
	// Narrow range containing a stored value.
	if !f.MayOverlapRegion(box([]uint64{base + 990}, []uint64{base + 1010})) {
		t.Fatal("bloom range probe missed stored value")
	}
	// Range wider than maxRangeProbe: must answer maybe.
	if !f.MayOverlapRegion(box([]uint64{0}, []uint64{maxRangeProbe + 1})) {
		t.Fatal("wide bloom range must answer maybe")
	}
}

// Bloom false-positive rate should be low at the target bits-per-key.
func TestBloomFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := tensor.NewCoords(1, 0)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		v := rng.Uint64() >> 1
		c.Append(v)
		seen[v] = true
	}
	f := Build(c)
	fp := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		v := rng.Uint64() >> 1
		if seen[v] {
			continue
		}
		if f.MayOverlapRegion(cell(v)) {
			fp++
		}
	}
	// At 10 bits/key (capped to 8192 bits here for n=1000, ~8.2 b/k) the
	// theoretical rate is ~2%; allow generous slack.
	if rate := float64(fp) / trials; rate > 0.10 {
		t.Fatalf("bloom false-positive rate %.3f too high", rate)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, span := range []uint64{100, 1 << 50} {
		c := tensor.NewCoords(4, 0)
		for i := 0; i < 300; i++ {
			c.Append(rng.Uint64()%span, rng.Uint64()%span, rng.Uint64()%span, rng.Uint64()%span)
		}
		f := Build(c)
		enc := f.Encode()
		if len(enc) != f.EncodedSize() {
			t.Fatalf("EncodedSize %d != len(Encode) %d", f.EncodedSize(), len(enc))
		}
		g, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(g.Encode(), enc) {
			t.Fatal("Decode/Encode round trip changed bytes")
		}
		// Behavioral identity on a sample of points.
		for i := 0; i < 200; i++ {
			p := []uint64{rng.Uint64() % span, rng.Uint64() % span, rng.Uint64() % span, rng.Uint64() % span}
			if f.MayOverlapRegion(cell(p...)) != g.MayOverlapRegion(cell(p...)) {
				t.Fatalf("decoded filter disagrees on %v", p)
			}
		}
	}
}

// Build must be deterministic: same coordinates (any insertion order
// within a dimension does not matter for bitmaps; for blooms the set of
// bits depends only on values) → same bytes.
func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([][]uint64, 200)
	for i := range pts {
		pts[i] = []uint64{rng.Uint64(), rng.Uint64()}
	}
	a := tensor.NewCoords(2, 0)
	for _, p := range pts {
		a.Append(p...)
	}
	b := tensor.NewCoords(2, 0)
	for i := len(pts) - 1; i >= 0; i-- {
		b.Append(pts[i]...)
	}
	fa, fb := Build(a), Build(b)
	if !bytes.Equal(fa.Encode(), fb.Encode()) {
		t.Fatal("Build not order-independent for identical coordinate sets")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	c := coordsOf(t, 2, []uint64{1, 2}, []uint64{3, 4})
	enc := Build(c).Encode()
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing", func(b []byte) []byte { return append(b, 0) }},
		{"bad kind", func(b []byte) []byte { b[2] = 99; return b }},
		{"empty", func(b []byte) []byte { return b[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), enc...))
			if _, err := Decode(mut); err == nil {
				t.Fatal("Decode accepted corrupted filter")
			}
		})
	}
}

func TestStats(t *testing.T) {
	c := coordsOf(t, 2, []uint64{0, 1 << 40}, []uint64{100, 1<<40 + 5})
	f := Build(c)
	st := f.Stats()
	if len(st) != 2 {
		t.Fatalf("Stats len = %d", len(st))
	}
	if st[0].Kind != "bitmap" || st[0].Bits != 101 || st[0].Set != 2 {
		t.Fatalf("dim0 stats = %+v", st[0])
	}
	if st[1].Kind != "bitmap" || st[1].Set != 2 {
		t.Fatalf("dim1 stats = %+v (extent 6 should be bitmap)", st[1])
	}
}
