package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBBoxContains(t *testing.T) {
	b := BBox{Min: []uint64{1, 1}, Max: []uint64{3, 4}}
	cases := []struct {
		p    []uint64
		want bool
	}{
		{[]uint64{1, 1}, true},
		{[]uint64{3, 4}, true},
		{[]uint64{2, 2}, true},
		{[]uint64{0, 2}, false},
		{[]uint64{4, 2}, false},
		{[]uint64{2, 5}, false},
		{[]uint64{2}, false},
	}
	for _, tc := range cases {
		if got := b.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBBoxOverlaps(t *testing.T) {
	a := BBox{Min: []uint64{0, 0}, Max: []uint64{2, 2}}
	cases := []struct {
		b    BBox
		want bool
	}{
		{BBox{Min: []uint64{2, 2}, Max: []uint64{4, 4}}, true},  // corner touch
		{BBox{Min: []uint64{3, 0}, Max: []uint64{4, 2}}, false}, // disjoint in x
		{BBox{Min: []uint64{0, 3}, Max: []uint64{2, 4}}, false}, // disjoint in y
		{BBox{Min: []uint64{1, 1}, Max: []uint64{1, 1}}, true},  // contained
		{BBox{Min: []uint64{0}, Max: []uint64{1}}, false},       // rank mismatch
	}
	for _, tc := range cases {
		if got := a.Overlaps(tc.b); got != tc.want {
			t.Errorf("Overlaps(%v) = %v, want %v", tc.b, got, tc.want)
		}
		// Symmetry, except for the rank-mismatch case.
		if len(tc.b.Min) == len(a.Min) && tc.b.Overlaps(a) != tc.want {
			t.Errorf("Overlaps not symmetric for %v", tc.b)
		}
	}
}

func TestBBoxUnion(t *testing.T) {
	a := BBox{Min: []uint64{2, 5}, Max: []uint64{4, 6}}
	b := BBox{Min: []uint64{0, 6}, Max: []uint64{3, 9}}
	u := a.Union(b)
	if u.Min[0] != 0 || u.Min[1] != 5 || u.Max[0] != 4 || u.Max[1] != 9 {
		t.Fatalf("Union = %v", u)
	}
	// Union must not alias its inputs.
	u.Min[0] = 99
	if a.Min[0] == 99 || b.Min[0] == 99 {
		t.Fatal("union aliases input")
	}
}

func TestNewRegionValidation(t *testing.T) {
	shape := Shape{10, 10}
	cases := []struct {
		name        string
		start, size []uint64
		ok          bool
	}{
		{"full", []uint64{0, 0}, []uint64{10, 10}, true},
		{"inner", []uint64{5, 5}, []uint64{1, 1}, true},
		{"zero size", []uint64{0, 0}, []uint64{0, 1}, false},
		{"start out", []uint64{10, 0}, []uint64{1, 1}, false},
		{"overrun", []uint64{5, 5}, []uint64{6, 1}, false},
		{"rank", []uint64{0}, []uint64{1}, false},
		// start+size wraps past MaxUint64 back inside the shape.
		{"wraps to 4", []uint64{5, 5}, []uint64{math.MaxUint64, 1}, false},
		{"wraps to 0", []uint64{9, 0}, []uint64{math.MaxUint64 - 8, 1}, false},
		{"wraps in dim 1", []uint64{0, 5}, []uint64{10, math.MaxUint64}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRegion(shape, tc.start, tc.size)
			if (err == nil) != tc.ok {
				t.Fatalf("NewRegion(%v,%v) err=%v, want ok=%v", tc.start, tc.size, err, tc.ok)
			}
		})
	}
}

func TestRegionBBoxAndVolume(t *testing.T) {
	r, err := NewRegion(Shape{10, 10}, []uint64{2, 3}, []uint64{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	box := r.BBox()
	if box.Min[0] != 2 || box.Max[0] != 5 || box.Min[1] != 3 || box.Max[1] != 7 {
		t.Fatalf("BBox = %v", box)
	}
	vol, ok := r.Volume()
	if !ok || vol != 20 {
		t.Fatalf("Volume = %d,%v", vol, ok)
	}
}

func TestRegionEachRowMajorOrder(t *testing.T) {
	r, err := NewRegion(Shape{4, 4}, []uint64{1, 2}, []uint64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]uint64
	r.Each(func(p []uint64) { got = append(got, [2]uint64{p[0], p[1]}) })
	want := [][2]uint64{{1, 2}, {1, 3}, {2, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Each visited %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// A zero extent in any dimension leaves no cell to visit, whatever the
// other extents; Coords is then empty, as Volume says.
func TestRegionEachZeroExtent(t *testing.T) {
	for _, r := range []Region{
		{Start: []uint64{3, 3}, Size: []uint64{0, 4}},
		{Start: []uint64{3, 3}, Size: []uint64{4, 0}},
		{Start: []uint64{0}, Size: []uint64{0}},
	} {
		n := 0
		r.Each(func([]uint64) { n++ })
		if n != 0 {
			t.Errorf("Each over %v visited %d cells, want 0", r, n)
		}
		if c := r.Coords(); c.Len() != 0 {
			t.Errorf("Coords of %v holds %d cells, want 0", r, c.Len())
		}
	}
}

func TestRegionCoordsMatchesEach(t *testing.T) {
	r, err := NewRegion(Shape{5, 5, 5}, []uint64{1, 0, 2}, []uint64{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Coords()
	vol, _ := r.Volume()
	if uint64(c.Len()) != vol {
		t.Fatalf("Coords len %d, volume %d", c.Len(), vol)
	}
	i := 0
	r.Each(func(p []uint64) {
		q := c.At(i)
		for d := range p {
			if p[d] != q[d] {
				t.Fatalf("cell %d: Each %v vs Coords %v", i, p, q)
			}
		}
		i++
	})
}

func TestRegionContains(t *testing.T) {
	r, err := NewRegion(Shape{10}, []uint64{3}, []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains([]uint64{3}) || !r.Contains([]uint64{6}) {
		t.Fatal("boundary cells not contained")
	}
	if r.Contains([]uint64{2}) || r.Contains([]uint64{7}) {
		t.Fatal("outside cells contained")
	}
	if r.Contains([]uint64{3, 3}) {
		t.Fatal("rank mismatch contained")
	}
}

// TestRegionQuick property-tests that Contains agrees with membership in
// the enumerated cells and that BBox contains exactly the region.
func TestRegionQuick(t *testing.T) {
	f := func(s0, s1, z0, z1 uint8, px, py uint8) bool {
		shape := Shape{16, 16}
		start := []uint64{uint64(s0) % 12, uint64(s1) % 12}
		size := []uint64{uint64(z0)%4 + 1, uint64(z1)%4 + 1}
		r, err := NewRegion(shape, start, size)
		if err != nil {
			return true // invalid parameters are fine to reject
		}
		p := []uint64{uint64(px) % 16, uint64(py) % 16}
		enumerated := false
		r.Each(func(q []uint64) {
			if q[0] == p[0] && q[1] == p[1] {
				enumerated = true
			}
		})
		if r.Contains(p) != enumerated {
			return false
		}
		return !r.Contains(p) || r.BBox().Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
