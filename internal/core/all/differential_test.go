package all_test

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

// TestDifferentialAllKinds runs the randomized differential battery
// over every registered organization at once: the paper's five plus
// the sorted-COO and BCOO extensions. Running them simultaneously on
// the same datasets is what catches a format disagreeing with the
// others, not just with its own tests.
func TestDifferentialAllKinds(t *testing.T) {
	formats := core.Registered()
	if len(formats) < 6 {
		t.Fatalf("only %d organizations registered, want at least 6", len(formats))
	}
	coretest.RunDifferential(t, formats)
}

// TestStreamingAllKinds checks the walk contract of every registered
// organization: Each restarts and stops where told, and ScanRegion ≡
// Each + containment filter, step for step, early termination
// included.
func TestStreamingAllKinds(t *testing.T) {
	formats := core.Registered()
	if len(formats) < 6 {
		t.Fatalf("only %d organizations registered, want at least 6", len(formats))
	}
	coretest.RunStreaming(t, formats)
}

// TestWalkAllocations pins the allocation budget of the read side for
// every registered organization: Lookup allocates nothing on a hit or a
// miss (the probe is remapped into a stack buffer), and Each and
// ScanRegion allocate at most their one point buffer per walk.
func TestWalkAllocations(t *testing.T) {
	shape := tensor.Shape{40, 30, 20}
	c := tensor.NewCoords(3, 0)
	for i := uint64(0); i < 600; i++ {
		c.Append(i*7%40, i*11%30, i*13%20)
	}
	region, err := tensor.NewRegion(shape, []uint64{4, 3, 2}, []uint64{20, 15, 10})
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := c.At(17), []uint64{39, 29, 19}
	for _, f := range core.Registered() {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Lookup(miss); ok {
			t.Fatalf("%v: the miss probe is stored", f.Kind())
		}
		visit := func([]uint64, int) bool { return true }
		for _, tc := range []struct {
			name   string
			budget float64
			run    func()
		}{
			{"Lookup(hit)", 0, func() { r.Lookup(hit) }},
			{"Lookup(miss)", 0, func() { r.Lookup(miss) }},
			{"Each", 1, func() { r.(core.Iterator).Each(visit) }},
			{"ScanRegion", 1, func() { r.(core.RegionScanner).ScanRegion(region, visit) }},
		} {
			if got := testing.AllocsPerRun(20, tc.run); got > tc.budget {
				t.Errorf("%v: %s allocates %v per call, budget %v", f.Kind(), tc.name, got, tc.budget)
			}
		}
	}
}

// TestScanShareAllKinds pins what each organization's region walk
// reports it reaches of a fragment's box: r's share along every
// component the walk seeks and stops on — every coordinate for CSF,
// the leading one for COO-sorted — and the whole box for the walks
// that visit every point (COO's unordered level; LINEAR's, GCS's and
// BCOO's remapped keys). A window that misses the box reaches nothing
// on a pruned walk.
func TestScanShareAllKinds(t *testing.T) {
	shape := tensor.Shape{40, 30, 20}
	c := tensor.NewCoords(3, 0)
	c.Append(0, 0, 0)
	c.Append(39, 29, 19)
	box, _ := c.Bounds()
	window := tensor.Region{Start: []uint64{4, 3, 2}, Size: []uint64{20, 15, 10}}
	beyond := tensor.Region{Start: []uint64{35, 0, 0}, Size: []uint64{100, 30, 20}} // reaches past the shape: clipped to [35, 39]
	want := map[core.Kind][2]float64{
		core.CSF:       {0.125, 5.0 / 40},
		core.COOSorted: {0.5, 5.0 / 40},
		core.COO:       {1, 1},
		core.Linear:    {1, 1},
		core.GCSR:      {1, 1},
		core.GCSC:      {1, 1},
		core.BCOO:      {1, 1},
	}
	for _, f := range core.Registered() {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		rs := r.(core.RegionScanner)
		if got := [2]float64{rs.ScanShare(window, box), rs.ScanShare(beyond, box)}; got != want[f.Kind()] {
			t.Errorf("%v: ScanShare = %v, want %v", f.Kind(), got, want[f.Kind()])
		}
		inner := tensor.BBox{Min: []uint64{30, 20, 10}, Max: []uint64{39, 29, 19}}
		if got, pruned := rs.ScanShare(window, inner), want[f.Kind()][0] < 1; (got == 0) != pruned {
			t.Errorf("%v: a window missing the box reaches %v of it", f.Kind(), got)
		}
	}
}

// BenchmarkScanRegionWindow walks a 1 % window — a 110³ cube of a 512³
// tensor holding 100 000 uniform points — with ScanRegion, the read
// loop's scan extractor, for the organizations whose region walk prunes
// at the rows (GCSR++), the block box (BCOO) or the leading coordinate
// (COO-sorted), beside CSF's tree.
func BenchmarkScanRegionWindow(b *testing.B) {
	shape := tensor.Shape{512, 512, 512}
	rng := rand.New(rand.NewSource(5))
	c := tensor.NewCoords(3, 100000)
	for c.Len() < 100000 {
		c.Append(uint64(rng.Intn(512)), uint64(rng.Intn(512)), uint64(rng.Intn(512)))
	}
	region, err := tensor.NewRegion(shape, []uint64{200, 200, 200}, []uint64{110, 110, 110})
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []core.Kind{core.GCSR, core.BCOO, core.COOSorted, core.CSF} {
		f, err := core.Get(kind)
		if err != nil {
			b.Fatal(err)
		}
		built, err := f.Build(c, shape)
		if err != nil {
			b.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			visited := 0
			for i := 0; i < b.N; i++ {
				r.(core.RegionScanner).ScanRegion(region, func([]uint64, int) bool { visited++; return true })
			}
			b.ReportMetric(float64(visited)/float64(b.N), "points/op")
		})
	}
}
