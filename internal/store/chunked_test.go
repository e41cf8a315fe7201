package store

import (
	"errors"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

// TestChunkedMatchesFlatStore: a chunked store answers a region read
// exactly as a flat store of the same data does, for every paper
// organization under every store configuration (storeConfigs) — the
// options are forwarded to each tile, the cache budget to the one cache
// the tiles share.
func TestChunkedMatchesFlatStore(t *testing.T) {
	eachStoreConfig(t, testChunkedMatchesFlatStore)
}

func testChunkedMatchesFlatStore(t *testing.T, opts []Option) {
	shape := tensor.Shape{20, 20}
	tile := tensor.Shape{8, 8} // does not divide evenly: edge tiles clip
	region, err := tensor.NewRegion(shape, []uint64{3, 3}, []uint64{14, 12})
	if err != nil {
		t.Fatal(err)
	}
	hole, err := tensor.NewRegion(shape, []uint64{6, 6}, []uint64{5, 5}) // straddles four tiles
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			flatFS, chunkFS := newSim(t), newSim(t)
			flat, err := Create(flatFS, "flat", kind, shape, opts...)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := NewChunked(chunkFS, "chunked", kind, shape, tile, opts...)
			if err != nil {
				t.Fatal(err)
			}
			same := func(when string) {
				t.Helper()
				fres, _, err := readRegion(flat, region, StrategyDefault)
				if err != nil {
					t.Fatal(err)
				}
				cres, _, err := readRegion(chunked, region, StrategyDefault)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(fres, cres) {
					t.Fatalf("%s: flat read %d points, chunked %d, or values differ",
						when, fres.Coords.Len(), cres.Coords.Len())
				}
			}
			// Overlapping generations and a delete, so every tile holds
			// several fragments (the checkpoint cadences diverge) and a
			// second read of the same window is a cache decision.
			rng := rand.New(rand.NewSource(2))
			for gen := 0; gen < 3; gen++ {
				coords, vals := randomPoints(rng, shape, 150)
				if _, err := flat.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
				if _, err := chunked.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
				same("cold")
				same("warm")
			}
			if _, err := flat.DeleteRegion(hole); err != nil {
				t.Fatal(err)
			}
			if _, err := chunked.DeleteRegion(hole); err != nil {
				t.Fatal(err)
			}
			same("after delete")

			// Reopened without a Close: both sides replay whatever their
			// cadence left in the manifest logs.
			if flat, err = Open(flatFS, "flat", opts...); err != nil {
				t.Fatal(err)
			}
			if chunked, err = OpenChunked(chunkFS, "chunked", opts...); err != nil {
				t.Fatal(err)
			}
			same("reopened")
		})
	}
}

func TestChunkedHandlesOverflowShape(t *testing.T) {
	// The whole point of chunking (§II-B): a tensor whose volume
	// overflows uint64. (2^40)^4 = 2^160 cells.
	big := uint64(1) << 40
	shape := tensor.Shape{big, big, big, big}
	if _, ok := shape.Volume(); ok {
		t.Fatal("test shape should overflow")
	}
	tile := tensor.Shape{1 << 15, 1 << 15, 1 << 15, 1 << 15} // tile volume 2^60 fits
	fs := newSim(t)
	st, err := NewChunked(fs, "huge", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(4, 0)
	coords.Append(0, 1, 2, 3)                         // tile (0,0,0,0)
	coords.Append(big-1, big-1, big-1, big-1)         // far corner tile
	coords.Append(1<<20, 0, 5, 9)                     // tile (1,0,0,0)
	coords.Append((1<<20)+7, 3, 1<<21, (1<<22)+12345) // mixed tile
	vals := []float64{1, 2, 3, 4}
	if _, err := st.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	if st.Tiles() != 4 {
		t.Fatalf("tiles = %d, want 4", st.Tiles())
	}
	res, _, err := readProbe(st, coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 4 {
		t.Fatalf("read back %d of 4 points", res.Coords.Len())
	}
	// Results come back in global lexicographic order.
	byAddr := map[[4]uint64]float64{}
	for i := 0; i < res.Coords.Len(); i++ {
		p := res.Coords.At(i)
		byAddr[[4]uint64{p[0], p[1], p[2], p[3]}] = res.Values[i]
	}
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		if byAddr[[4]uint64{p[0], p[1], p[2], p[3]}] != vals[i] {
			t.Fatalf("point %v lost or wrong value", p)
		}
	}
	// Probes for absent points in absent tiles are fine.
	miss := tensor.NewCoords(4, 0)
	miss.Append(42, 42, 42, 42)
	res, _, err = readProbe(st, miss)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("absent probe: %d found, %v", res.Coords.Len(), err)
	}
}

func TestChunkedEdgeTilesClip(t *testing.T) {
	shape := tensor.Shape{10}
	tile := tensor.Shape{4} // tiles: [0,4) [4,8) [8,10)
	fs := newSim(t)
	st, err := NewChunked(fs, "edge", core.GCSR, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(1, 0)
	coords.Append(9) // lives in the clipped tile [8,10)
	if _, err := st.Write(coords, []float64{5}); err != nil {
		t.Fatal(err)
	}
	res, _, err := readProbe(st, coords)
	if err != nil || res.Coords.Len() != 1 || res.Values[0] != 5 {
		t.Fatalf("clipped tile read: %v %v", res, err)
	}
	if got := st.tiling.Extent([]uint64{2}); !got.Equal(tensor.Shape{2}) {
		t.Fatalf("edge tile shape = %v, want {2}", got)
	}
}

func TestChunkedValidation(t *testing.T) {
	fs := newSim(t)
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{4, 4}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{0}); err == nil {
		t.Error("zero tile accepted")
	}
	if _, err := NewChunked(fs, "x", core.COO, tensor.Shape{10, 10},
		tensor.Shape{1 << 33, 1 << 33}); err == nil {
		t.Error("overflowing tile accepted")
	}
	if _, err := NewChunked(fs, "x", core.Kind(99), tensor.Shape{10}, tensor.Shape{4}); err == nil {
		t.Error("unknown kind accepted")
	}
	st, err := NewChunked(fs, "x", core.COO, tensor.Shape{10}, tensor.Shape{4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.NewCoords(1, 0)
	bad.Append(10)
	if _, err := st.Write(bad, []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("out-of-shape point not rejected as ErrShapeMismatch: %v", err)
	}
	if _, err := st.Write(tensor.NewCoords(1, 0), []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("value count mismatch not rejected as ErrShapeMismatch: %v", err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(1, 1)
	if _, err := st.Write(c2, []float64{1}); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("dims mismatch not rejected as ErrShapeMismatch: %v", err)
	}
	if _, _, err := readProbe(st, c2); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("probe dims mismatch not rejected as ErrShapeMismatch: %v", err)
	}
}

func TestChunkedDeleteRegion(t *testing.T) {
	shape := tensor.Shape{20, 20}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := NewChunked(fs, "del", core.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(2, 0)
	coords.Append(1, 1)   // tile (0,0): inside the deletion
	coords.Append(9, 9)   // tile (1,1): inside the deletion
	coords.Append(18, 18) // tile (2,2): outside
	if _, err := st.Write(coords, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Delete the region [0,12) x [0,12), spanning four tiles.
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.DeleteRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes <= 0 {
		t.Fatalf("delete report: %+v", rep)
	}
	res, _, err := readProbe(st, coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 1 || res.Values[0] != 3 {
		t.Fatalf("after delete: %d cells (want only (18,18))", res.Coords.Len())
	}
	// A rewrite after the deletion is alive again.
	c2 := tensor.NewCoords(2, 0)
	c2.Append(9, 9)
	if _, err := st.Write(c2, []float64{42}); err != nil {
		t.Fatal(err)
	}
	res, _, err = readProbe(st, coords)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coords.Len() != 2 {
		t.Fatalf("after rewrite: %d cells", res.Coords.Len())
	}
	// Validation.
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{0}, Size: []uint64{1}}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{19, 19}, Size: []uint64{5, 5}}); err == nil {
		t.Error("out-of-shape region accepted")
	}
}

func TestChunkedAggregatesReports(t *testing.T) {
	shape := tensor.Shape{16, 16}
	tile := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := NewChunked(fs, "agg", core.Linear, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	coords := tensor.NewCoords(2, 0)
	coords.Append(0, 0)   // tile (0,0)
	coords.Append(15, 15) // tile (1,1)
	rep, err := st.Write(coords, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NNZ != 2 || rep.Bytes <= 0 || rep.Write <= 0 {
		t.Fatalf("aggregate write report: %+v", rep)
	}
	if st.TotalBytes() != rep.Bytes {
		t.Fatalf("TotalBytes %d != report bytes %d", st.TotalBytes(), rep.Bytes)
	}
	res, rrep, err := readProbe(st, coords)
	if err != nil || res.Coords.Len() != 2 {
		t.Fatalf("read: %v %v", res, err)
	}
	if rrep.Fragments != 2 || rrep.Found != 2 {
		t.Fatalf("aggregate read report: %+v", rrep)
	}
}
