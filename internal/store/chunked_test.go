package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

// TestChunkedMatchesFlatStore: a chunked store answers a region read
// (planned, scanned, or as a probe list of its cells) and a
// KernelSumRegion exactly as a flat store of the same data does, for
// every paper organization under every store configuration
// (storeConfigs) — the options are forwarded to each tile, the cache
// budget to the one cache the tiles share. Besides an interior window,
// the windows include the edge cases a request may carry: a zero extent
// (no cell), an extent that wraps past MaxUint64 and one that reaches
// past the shape (both clip to the shape's edge).
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
	windows := []tensor.Region{
		region,
		{Start: []uint64{3, 3}, Size: []uint64{0, 4}},                           // zero extent
		{Start: []uint64{3, 0}, Size: []uint64{0, 20}},                          // zero extent over a whole row
		{Start: []uint64{9, 9}, Size: []uint64{math.MaxUint64, math.MaxUint64}}, // wraps
		{Start: []uint64{0, 0}, Size: []uint64{100, 100}},                       // past the shape
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
				for _, w := range windows {
					reqs := map[string]QueryRequest{
						"planned": {Region: &w, AsOf: AsOfLatest},
						"scan":    {Region: &w, AsOf: AsOfLatest, Strategy: StrategyScan},
					}
					if cells, ok := (Tiling{Shape: shape, Tile: shape}).Clip(w, make([]uint64, 2)); ok {
						reqs["cell probe"] = QueryRequest{Probe: cells.Coords(), AsOf: AsOfLatest}
					}
					for name, req := range reqs {
						fres, _, err := flat.Query(context.Background(), req)
						if err != nil {
							t.Fatalf("%s: flat %s read of %v: %v", when, name, w, err)
						}
						cres, _, err := chunked.Query(context.Background(), req)
						if err != nil {
							t.Fatalf("%s: chunked %s read of %v: %v", when, name, w, err)
						}
						if !sameResult(fres, cres) {
							t.Fatalf("%s: %s read of %v: flat read %d points, chunked %d, or values differ",
								when, name, w, fres.Coords.Len(), cres.Coords.Len())
						}
					}
					req := KernelRequest{Op: KernelSumRegion, Region: &w}
					fsum, err := flat.Kernel(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: flat sum over %v: %v", when, w, err)
					}
					csum, err := chunked.Kernel(context.Background(), req)
					if err != nil {
						t.Fatalf("%s: chunked sum over %v: %v", when, w, err)
					}
					// Tiles sum their shares separately: equal up to rounding.
					if f, c := fsum.Values[0], csum.Values[0]; math.Abs(f-c) > 1e-9*(1+math.Abs(f)) {
						t.Fatalf("%s: sum over %v: flat %v, chunked %v", when, w, f, c)
					}
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

			// Reopened through the one Open without a Close: both sides
			// replay whatever their cadence left in the manifest logs.
			reopen := func() {
				t.Helper()
				settle(flat)
				settle(chunked)
				if flat, err = Open(flatFS, "flat", opts...); err != nil {
					t.Fatal(err)
				}
				if chunked, err = Open(chunkFS, "chunked", opts...); err != nil {
					t.Fatal(err)
				}
			}
			reopen()
			same("reopened")
			sameExport(t, "reopened", flat, chunked)

			// Compact and Checkpoint fold over the tiles: each tile keeps
			// one fragment of its live cells, the tombstones fold in, and
			// every read, the export and a reopen agree with the flat
			// store's.
			for _, st := range []*Store{flat, chunked} {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				settle(st)
			}
			same("compacted")
			live := sameExport(t, "compacted", flat, chunked)
			for name, st := range map[string]*Store{"flat": flat, "chunked": chunked} {
				if got := st.Stats(); got.Fragments != st.Tiles() || got.Tombstones != 0 || got.WrittenPoints != live {
					t.Fatalf("%s: stats %+v after Compact over %d tiles, want a fragment a tile, no tombstone, %d points", name, got, st.Tiles(), live)
				}
			}
			reopen()
			same("compacted, reopened")
			sameExport(t, "compacted, reopened", flat, chunked)
		})
	}
}

// sameExport checks that flat and chunked export the same cells and
// returns how many.
func sameExport(t *testing.T, when string, flat, chunked *Store) int {
	t.Helper()
	fc, fv, err := flat.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	cc, cv, err := chunked.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(&Result{Coords: fc, Values: fv}, &Result{Coords: cc, Values: cv}) {
		t.Fatalf("%s: flat exports %d cells, chunked %d, or values differ", when, fc.Len(), cc.Len())
	}
	return fc.Len()
}

// TestOneAddressSpace: a store of any tiling computes what a flat
// store of the same data computes. For every organization, a tiled
// store whose one tile covers the shape — written or not — and a store
// of four tiles answer SpMV, TTV along both modes, NNZPerSlice, SumAll,
// LiveNNZ, ScanLive and Convert as the flat store does: the one-tile
// store bit for bit, the four-tile store with exact counts and sums
// within 1e-9·(1+|want|). ScanLive visits ExportAll's cells, each
// tile's contiguous and ascending, in tile-name order; Convert keeps the
// source's tiling and writes one fragment per chunk. Only an as-of read
// is refused on four tiles, with ErrBadRequest.
func TestOneAddressSpace(t *testing.T) {
	shape := tensor.Shape{12, 10}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	coords, vals := randomPoints(rng, shape, 40)
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i) - 2.5
		}
		return v
	}
	kreqs := map[string]KernelRequest{
		"spmv":    {Op: KernelSpMV, Vec: vec(10)},
		"ttv0":    {Op: KernelTTV, Mode: 0, Vec: vec(12)},
		"ttv1":    {Op: KernelTTV, Mode: 1, Vec: vec(10)},
		"slices0": {Op: KernelNNZPerSlice, Mode: 0},
		"slices1": {Op: KernelNNZPerSlice, Mode: 1},
		"sum":     {Op: KernelSumAll},
		"nnz":     {Op: KernelLiveNNZ},
	}
	type answer struct {
		asOf    []float64
		kernels map[string][]float64
		scanned *Result
	}
	run := func(t *testing.T, st *Store) (answer, error) {
		t.Helper()
		a := answer{kernels: map[string][]float64{}}
		res, _, asOfErr := readAsOf(st, coords, 1)
		if res != nil {
			a.asOf = res.Values
		}
		for name, req := range kreqs {
			k, err := st.Kernel(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			a.kernels[name] = k.Values
		}
		// ScanLive: each tile's cells contiguous and ascending, the tiles
		// in name order.
		a.scanned = &Result{Coords: tensor.NewCoords(2, 0)}
		idx := make([]uint64, 2)
		var last []byte
		if _, err := st.ScanLive(ctx, nil, func(p []uint64, val float64) bool {
			st.tiling.Index(idx, p)
			name := st.tiling.AppendName(nil, idx)
			if n := a.scanned.Coords.Len(); n > 0 {
				prev := a.scanned.Coords.At(n - 1)
				switch c := string(name); {
				case c < string(last):
					t.Fatalf("scan left tile %s for earlier tile %s at %v", last, name, p)
				case c == string(last) && (prev[0] > p[0] || prev[0] == p[0] && prev[1] >= p[1]):
					t.Fatalf("scan in tile %s: %v after %v", name, p, prev)
				}
			}
			last = name
			a.scanned.Coords.Append(p...)
			a.scanned.Values = append(a.scanned.Values, val)
			return true
		}); err != nil {
			t.Fatalf("scan: %v", err)
		}
		ec, ev, err := st.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		if !sameCells(a.scanned, &Result{Coords: ec, Values: ev}) {
			t.Fatalf("scan visited %d cells, ExportAll has %d, or they differ", a.scanned.Coords.Len(), ec.Len())
		}
		// Convert keeps the tiling; each chunk is one fragment.
		dst, rep, err := Convert(ctx, st, newSim(t), "dst", core.COO, ConvertConfig{ChunkPoints: 7})
		if err != nil {
			t.Fatalf("convert: %v", err)
		}
		if dst.flat != st.flat || !dst.Tile().Equal(st.Tile()) {
			t.Fatalf("converted into tile %v (flat %v), source %v (flat %v)", dst.Tile(), dst.flat, st.Tile(), st.flat)
		}
		if rep.Chunks != dst.Fragments() || rep.Points != int64(ec.Len()) {
			t.Fatalf("convert reports %d chunks of %d points; destination holds %d fragments, source %d cells", rep.Chunks, rep.Points, dst.Fragments(), ec.Len())
		}
		sameExport(t, "converted", st, dst)
		return a, asOfErr
	}
	kinds := append(core.PaperKinds(), core.COOSorted, core.BCOO)
	want := map[core.Kind]answer{}
	for _, tc := range []struct {
		name  string
		tile  tensor.Shape // nil: flat
		empty bool
	}{
		{"flat", nil, false},
		{"one tile", tensor.Shape{16, 16}, false},
		{"one tile, empty", tensor.Shape{12, 10}, true},
		{"four tiles", tensor.Shape{6, 5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range kinds {
				t.Run(kind.String(), func(t *testing.T) {
					var st *Store
					var err error
					if tc.tile == nil {
						st, err = Create(newSim(t), "s", kind, shape)
					} else {
						st, err = NewChunked(newSim(t), "s", kind, shape, tc.tile)
					}
					if err != nil {
						t.Fatal(err)
					}
					if !tc.empty {
						if _, err := st.Write(coords, vals); err != nil {
							t.Fatal(err)
						}
					}
					got, asOfErr := run(t, st)
					switch {
					case tc.name == "flat":
						if asOfErr != nil {
							t.Fatalf("as-of: %v", asOfErr)
						}
						want[kind] = got
					case tc.empty:
						if got.scanned.Coords.Len() != 0 || len(got.kernels["spmv"]) != 12 || len(got.kernels["ttv0"]) != 10 {
							t.Fatalf("empty one-tile store: scanned %d, spmv %d values, ttv %d", got.scanned.Coords.Len(), len(got.kernels["spmv"]), len(got.kernels["ttv0"]))
						}
						if !errors.Is(asOfErr, ErrBadRequest) {
							t.Fatalf("as-of version 1 of an empty store: err = %v, want ErrBadRequest", asOfErr)
						}
					case st.Tiles() == 1:
						if asOfErr != nil || !reflect.DeepEqual(got, want[kind]) {
							t.Fatalf("one-tile store answers %+v (as-of %v), flat store %+v", got, asOfErr, want[kind])
						}
					default:
						if !errors.Is(asOfErr, ErrBadRequest) {
							t.Fatalf("as-of on %d tiles: err = %v, want ErrBadRequest", st.Tiles(), asOfErr)
						}
						w := want[kind]
						for name, vs := range got.kernels {
							if len(vs) != len(w.kernels[name]) {
								t.Fatalf("%s: %d values, flat store %d", name, len(vs), len(w.kernels[name]))
							}
							for i, v := range vs {
								if wv := w.kernels[name][i]; math.Abs(v-wv) > 1e-9*(1+math.Abs(wv)) {
									t.Fatalf("%s[%d] = %v on %d tiles, %v flat", name, i, v, st.Tiles(), wv)
								}
							}
						}
						if !sameCells(got.scanned, w.scanned) {
							t.Fatalf("scan on %d tiles visited %d cells, flat %d, or they differ", st.Tiles(), got.scanned.Coords.Len(), w.scanned.Coords.Len())
						}
					}
				})
			}
		})
	}
}

// sameCells reports whether two results hold the same cells with
// bit-equal values, in any order.
func sameCells(a, b *Result) bool {
	if a.Coords.Len() != b.Coords.Len() {
		return false
	}
	cells := map[[2]uint64]float64{}
	for i, n := 0, a.Coords.Len(); i < n; i++ {
		p := a.Coords.At(i)
		cells[[2]uint64{p[0], p[1]}] = a.Values[i]
	}
	for i, n := 0, b.Coords.Len(); i < n; i++ {
		p := b.Coords.At(i)
		if v, ok := cells[[2]uint64{p[0], p[1]}]; !ok || math.Float64bits(v) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
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
	// Convert keeps the tiling, so a shape past uint64 converts.
	ctx := context.Background()
	dst, rep, err := Convert(ctx, st, newSim(t), "converted", core.COO, ConvertConfig{})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if rep.Points != 4 || rep.Chunks != dst.Fragments() {
		t.Fatalf("convert: %+v into %d fragments", rep, dst.Fragments())
	}
	sameExport(t, "converted", st, dst)

	// Every kernel runs in global coordinates: a TTV whose output
	// (2⁴⁰)³ passes uint64 is refused, typed, and the sums, the count and
	// the scan see the written cells where they were written.
	narrow, err := NewChunked(newSim(t), "narrow", core.CSF, tensor.Shape{big, big, big, 4}, tensor.Shape{1 << 15, 1 << 15, 1 << 15, 4})
	if err != nil {
		t.Fatal(err)
	}
	cells := tensor.NewCoords(4, 0)
	cells.Append(1, 2, 3, 0)
	cells.Append(big-1, 1<<20, 5, 3)
	cells.Append(1<<30, big-1, big-1, 2)
	if _, err := narrow.Write(cells, []float64{1.5, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := narrow.Kernel(ctx, KernelRequest{Op: KernelTTV, Mode: 3, Vec: []float64{1, 1, 1, 1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("ttv into (2^40)^3 values: err = %v, want ErrBadRequest", err)
	}
	for _, k := range []struct {
		op   KernelOp
		want float64
	}{{KernelSumAll, 7.5}, {KernelLiveNNZ, 3}} {
		if res, err := narrow.Kernel(ctx, KernelRequest{Op: k.op}); err != nil || res.Values[0] != k.want {
			t.Fatalf("kernel %v = %v, %v; want %v", k.op, res, err, k.want)
		}
	}
	scanned := map[[4]uint64]float64{}
	if _, err := narrow.ScanLive(ctx, nil, func(p []uint64, val float64) bool {
		scanned[[4]uint64{p[0], p[1], p[2], p[3]}] = val
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := map[[4]uint64]float64{{1, 2, 3, 0}: 1.5, {big - 1, 1 << 20, 5, 3}: 2, {1 << 30, big - 1, big - 1, 2}: 4}
	if !reflect.DeepEqual(scanned, want) {
		t.Fatalf("scan visited %v, want %v", scanned, want)
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
