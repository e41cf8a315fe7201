package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

// refTileName is the tile name as fmt spells it — the spelling every
// store on disk and every router placement was made with.
func refTileName(idx []uint64) string {
	var b strings.Builder
	b.WriteString("t")
	for _, v := range idx {
		fmt.Fprintf(&b, "-%d", v)
	}
	return b.String()
}

// TestTilingNameRoundTrip pins the tile name: AppendName spells what
// fmt always spelled, ParseName inverts it, and nothing but the
// canonical spelling of the tiling's rank parses.
func TestTilingNameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for dims := 1; dims <= 5; dims++ {
		tl := Tiling{Shape: make(tensor.Shape, dims), Tile: make(tensor.Shape, dims)}
		var buf []byte
		for n := 0; n < 200; n++ {
			idx := make([]uint64, dims)
			for d := range idx {
				switch rng.Intn(4) {
				case 0: // stays 0
				case 1:
					idx[d] = math.MaxUint64
				case 2:
					idx[d] = uint64(rng.Intn(100))
				default:
					idx[d] = rng.Uint64()
				}
			}
			buf = tl.AppendName(buf[:0], idx)
			if want := refTileName(idx); string(buf) != want {
				t.Fatalf("AppendName(%v) = %q, want %q", idx, buf, want)
			}
			back, ok := tl.ParseName(string(buf))
			if !ok || !reflect.DeepEqual(back, idx) {
				t.Fatalf("ParseName(%q) = %v, %v; want %v", buf, back, ok, idx)
			}
		}
	}
	tl := Tiling{Shape: tensor.Shape{100, 100}, Tile: tensor.Shape{10, 10}}
	if idx, ok := tl.ParseName("t-3-12"); !ok || idx[0] != 3 || idx[1] != 12 {
		t.Fatalf("ParseName(t-3-12) = %v, %v", idx, ok)
	}
	for _, bad := range []string{
		"", "t", "t-", "t-3", "t-1--2", "t--1-2", "t-1-2-", "x-1-2", "t1-2", "t-3-12-9", "t-a-b",
		"t-+1-2", "t-01-2", "t-1-18446744073709551616", "t-1-99999999999999999999",
	} {
		if idx, ok := tl.ParseName(bad); ok {
			t.Errorf("ParseName(%q) = %v, want rejection", bad, idx)
		}
	}
}

// TestTilingMatchesCellEnumeration checks the tiling's region answers —
// Range, the Next walk, Clip, Extent — against plain enumeration of the
// cells, for regions inside the shape, reaching past it, overflowing
// uint64, and empty.
func TestTilingMatchesCellEnumeration(t *testing.T) {
	tl := Tiling{Shape: tensor.Shape{10, 7}, Tile: tensor.Shape{4, 3}}
	const huge = math.MaxUint64
	regions := []tensor.Region{
		{Start: []uint64{0, 0}, Size: []uint64{10, 7}},
		{Start: []uint64{3, 2}, Size: []uint64{2, 2}},
		{Start: []uint64{4, 3}, Size: []uint64{4, 3}},
		{Start: []uint64{9, 6}, Size: []uint64{1, 1}},
		{Start: []uint64{0, 0}, Size: []uint64{100, 100}},
		{Start: []uint64{5, 1}, Size: []uint64{huge, huge}},
		{Start: []uint64{1, 1}, Size: []uint64{huge, 2}},
		{Start: []uint64{2, 2}, Size: []uint64{0, 3}},
		{Start: []uint64{10, 0}, Size: []uint64{1, 1}},
		{Start: []uint64{huge, huge}, Size: []uint64{huge, huge}},
	}
	for _, region := range regions {
		// want: tile name → the tile-local cells the region covers.
		want := map[string]map[[2]uint64]bool{}
		idx := make([]uint64, 2)
		for x := uint64(0); x < tl.Shape[0]; x++ {
			for y := uint64(0); y < tl.Shape[1]; y++ {
				if x < region.Start[0] || y < region.Start[1] ||
					x-region.Start[0] >= region.Size[0] || y-region.Start[1] >= region.Size[1] {
					continue
				}
				tl.Index(idx, []uint64{x, y})
				name := refTileName(idx)
				if want[name] == nil {
					want[name] = map[[2]uint64]bool{}
				}
				want[name][[2]uint64{x - tl.Origin(idx, 0), y - tl.Origin(idx, 1)}] = true
			}
		}
		got := map[string]map[[2]uint64]bool{}
		if lo, hi, ok := tl.Range(region); ok {
			if n := uint64(len(want)); !tl.Within(lo, hi, n) || tl.Within(lo, hi, n-1) {
				t.Errorf("%v: Within disagrees with the %d tiles of [%v, %v]", region, len(want), lo, hi)
			}
			idx := append([]uint64(nil), lo...)
			for more := true; more; more = tl.Next(idx, lo, hi) {
				clip, ok := tl.Clip(region, idx)
				if !ok {
					t.Errorf("%v: tile %v of its range does not clip", region, idx)
					continue
				}
				ext := tl.Extent(idx)
				cells := map[[2]uint64]bool{}
				for x := clip.Start[0]; x < clip.Start[0]+clip.Size[0]; x++ {
					for y := clip.Start[1]; y < clip.Start[1]+clip.Size[1]; y++ {
						if x >= ext[0] || y >= ext[1] {
							t.Errorf("%v: tile %v clip %v leaves its extent %v", region, idx, clip, ext)
						}
						cells[[2]uint64{x, y}] = true
					}
				}
				got[string(tl.AppendName(nil, idx))] = cells
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: tiling covers %v, enumeration %v", region, got, want)
		}
	}
	if _, ok := tl.Clip(tensor.Region{Start: []uint64{0, 0}, Size: []uint64{4, 3}}, []uint64{1, 1}); ok {
		t.Error("a region clips against a tile it does not overlap")
	}
}

// TestValidateBatches: the one write validator rejects a malformed
// batch with ErrShapeMismatch — a nil coordinate buffer included — with
// the same text from a Store and a Chunked, and before either has
// committed the good batch beside it.
func TestValidateBatches(t *testing.T) {
	shape, tile := tensor.Shape{16, 16}, tensor.Shape{8, 8}
	point := func(dims int, flat ...uint64) *tensor.Coords {
		c, err := tensor.FromFlat(dims, flat)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	good := Batch{Coords: point(2, 1, 1, 9, 9), Values: []float64{1, 2}}
	for name, bad := range map[string]Batch{
		"nil coords":         {Values: []float64{1}},
		"short values":       {Coords: point(2, 1, 1, 9, 9), Values: []float64{1}},
		"wrong rank":         {Coords: point(3, 1, 1, 1), Values: []float64{1}},
		"out-of-shape point": {Coords: point(2, 1, 1, 16, 3), Values: []float64{1, 2}},
	} {
		t.Run(name, func(t *testing.T) {
			batches := []Batch{good, bad}
			want := ValidateBatches(batches, shape)
			if !errors.Is(want, ErrShapeMismatch) {
				t.Fatalf("ValidateBatches = %v, want ErrShapeMismatch", want)
			}
			flat, err := Create(newSim(t), "f", core.CSF, shape)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := NewChunked(newSim(t), "c", core.CSF, shape, tile)
			if err != nil {
				t.Fatal(err)
			}
			_, ferr := flat.WriteBatch(batches, 1)
			_, cerr := chunked.WriteBatch(batches, 1)
			for layer, err := range map[string]error{"Store": ferr, "Chunked": cerr} {
				if err == nil || err.Error() != want.Error() || !errors.Is(err, ErrShapeMismatch) {
					t.Errorf("%s.WriteBatch = %v, want %v", layer, err, want)
				}
			}
			if _, err := flat.Write(bad.Coords, bad.Values); !errors.Is(err, ErrShapeMismatch) {
				t.Errorf("Store.Write = %v, want ErrShapeMismatch", err)
			}
			if flat.Fragments() != 0 || chunked.Fragments() != 0 || chunked.Tiles() != 0 {
				t.Errorf("rejected call committed: %d flat fragments, %d chunked in %d tiles",
					flat.Fragments(), chunked.Fragments(), chunked.Tiles())
			}
		})
	}
}

// TestChunkedPartitionAllocs: splitting points by tile costs per tile,
// not per point — the per-point path is divide, append digits into a
// reused buffer, look the bytes up.
func TestChunkedPartitionAllocs(t *testing.T) {
	shape, tile := tensor.Shape{32, 16}, tensor.Shape{8, 8} // 8 tiles
	st, err := NewChunked(newSim(t), "a", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	const points = 4096
	coords := tensor.NewCoords(2, points)
	vals := make([]float64, points)
	for i := uint64(0); i < points; i++ {
		coords.Append(i%32, (i/32)%16)
	}
	if _, err := st.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	dir := st.dir.Load()
	if len(dir.sorted) != 8 {
		t.Fatalf("%d tiles, want 8", len(dir.sorted))
	}
	const perTile = 64 // two growing buffers and a handful of headers
	for name, split := range map[string]func() []*tilePart{
		"write": func() []*tilePart { return st.partition(nil, coords, vals) },
		"probe": func() []*tilePart { return st.partition(dir, coords, nil) },
	} {
		if parts := split(); len(parts) != 8 {
			t.Fatalf("%s: %d parts, want 8", name, len(parts))
		}
		if allocs := testing.AllocsPerRun(5, func() { split() }); allocs > 8*perTile {
			t.Errorf("%s partition of %d points over 8 tiles: %.0f allocations, want <= %d", name, points, allocs, 8*perTile)
		}
	}
}

// TestChunkedConcurrentTileCreation races tile creation: two writers
// put points into tiles nobody has seen — the same tiles, in the same
// rounds, disjoint cells — beside loops of region reads, probes, SumAll
// kernels and deletions of a band no writer touches. Under -race this
// is the test of the tile directory (it fails on a plain map); in any
// mode the outcome must equal a serial replay, live and after a reopen,
// with each tile created exactly once.
func TestChunkedConcurrentTileCreation(t *testing.T) {
	shape, tile := tensor.Shape{64, 64}, tensor.Shape{8, 8}
	const rounds, writers = 14, 2
	band := tensor.Region{Start: []uint64{56, 0}, Size: []uint64{8, 64}}
	// Round r of writer w fills tile row r/2's eight tiles, one point per
	// tile; w picks the column inside the tile, r the row.
	batchOf := func(w, r int) Batch {
		c := tensor.NewCoords(2, 8)
		var v []float64
		for tj := 0; tj < 8; tj++ {
			c.Append(uint64(r/2*8+r%2*4+w), uint64(tj*8+w))
			v = append(v, float64(100*r+10*tj+w))
		}
		return Batch{Coords: c, Values: v}
	}
	bandPoints := Batch{Coords: tensor.NewCoords(2, 0)}
	for j := uint64(0); j < 64; j += 5 {
		bandPoints.Coords.Append(60, j)
		bandPoints.Values = append(bandPoints.Values, float64(j))
	}
	whole := tensor.Region{Start: []uint64{0, 0}, Size: shape}
	export := func(st *Chunked) *Result {
		res, _, err := readRegion(st, whole, StrategyScan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	fs := newSim(t)
	st, err := NewChunked(fs, "race", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteBatch([]Batch{bandPoints}, 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	var writing, reading sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for r := 0; r < rounds; r++ {
				if _, err := st.WriteBatch([]Batch{batchOf(w, r)}, 1); err != nil {
					t.Errorf("writer %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	probe := batchOf(0, 3).Coords
	loops := map[string]func() error{
		"region": func() error {
			_, _, err := readRegion(st, tensor.Region{Start: []uint64{4, 4}, Size: []uint64{40, 40}}, StrategyAuto)
			return err
		},
		"probe":  func() error { _, _, err := readProbe(st, probe); return err },
		"sumall": func() error { _, err := st.Kernel(ctx, KernelRequest{Op: KernelSumAll}); return err },
		"delete": func() error { _, err := st.DeleteRegion(band); return err },
	}
	for name, op := range loops {
		reading.Add(1)
		go func(name string, op func() error) {
			defer reading.Done()
			for {
				if err := op(); err != nil {
					t.Errorf("%s beside tile creation: %v", name, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(name, op)
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if t.Failed() {
		return
	}
	if _, err := st.DeleteRegion(band); err != nil { // at least one deletion follows the band's write
		t.Fatal(err)
	}

	serial, err := NewChunked(newSim(t), "serial", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	replay := []Batch{bandPoints}
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			replay = append(replay, batchOf(w, r))
		}
	}
	if _, err := serial.WriteBatch(replay, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.DeleteRegion(band); err != nil {
		t.Fatal(err)
	}
	want := export(serial)
	if want.Coords.Len() != writers*rounds*8 {
		t.Fatalf("serial replay holds %d cells, want %d", want.Coords.Len(), writers*rounds*8)
	}
	reopened, err := OpenChunked(fs, "race")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Chunked{"live": st, "reopened": reopened} {
		if res := export(got); !res.Coords.Equal(want.Coords) || !reflect.DeepEqual(res.Values, want.Values) {
			t.Errorf("%s store: %d cells, serial replay %d (or values differ)", name, res.Coords.Len(), want.Coords.Len())
		}
		if got.Tiles() != serial.Tiles() || got.Fragments() < writers*rounds*8 {
			t.Errorf("%s store: %d tiles holding %d fragments, serial replay %d tiles and at least %d",
				name, got.Tiles(), got.Fragments(), serial.Tiles(), writers*rounds*8)
		}
	}
}
