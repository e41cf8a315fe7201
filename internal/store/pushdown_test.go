package store

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/linalg"
	"sparseart/internal/obs"
	"sparseart/internal/tensor"
)

// randomIntPoints is randomPoints with small integer values: the
// differentials below compare kernels with linalg kernels that walk an
// export in a different order, and integer-valued sums below 2^53 are
// exact regardless of association. (TestKernelFoldDeterministic is the
// one with non-integer values.)
func randomIntPoints(rng *rand.Rand, shape tensor.Shape, n int) (*tensor.Coords, []float64) {
	c, vals := randomPoints(rng, shape, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(999) + 1)
	}
	return c, vals
}

// intVec fills a dense vector with small integers.
func intVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(9) + 1)
	}
	return v
}

// messyStore builds a store with overlapping writes, two tombstones
// (one of them live — not shadowed by later writes everywhere), and a
// final write on top, so push-down liveness has every masking case to
// get wrong. Integer values throughout.
func messyStore(t *testing.T, kind core.Kind, shape tensor.Shape, seed int64, opts ...Option) *Store {
	t.Helper()
	fs := newSim(t)
	st, err := Create(fs, "t", kind, shape, opts...)
	if err != nil {
		t.Fatal(err)
	}
	messyMutations(t, st, shape, seed)
	return st
}

// messyMutations applies messyStore's mutation sequence to an existing
// store (same seed → same logical contents).
func messyMutations(t *testing.T, st *Store, shape tensor.Shape, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		c, vals := randomIntPoints(rng, shape, 120)
		if _, err := st.Write(c, vals); err != nil {
			t.Fatal(err)
		}
	}
	half := make([]uint64, shape.Dims())
	for i, m := range shape {
		half[i] = m / 4
	}
	del1, err := tensor.NewRegion(shape, make([]uint64, shape.Dims()), half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(del1); err != nil {
		t.Fatal(err)
	}
	c, vals := randomIntPoints(rng, shape, 120)
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	start := make([]uint64, shape.Dims())
	for i, m := range shape {
		start[i] = m / 2
	}
	del2, err := tensor.NewRegion(shape, start, half)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(del2); err != nil {
		t.Fatal(err)
	}
	c, vals = randomIntPoints(rng, shape, 80)
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
}

// pushKinds is every registered organization the push-down suite runs
// over.
func pushKinds() []core.Kind {
	return append(core.PaperKinds(), core.COOSorted, core.BCOO)
}

// TestPushdownDifferential is the acceptance property for in-store
// kernels: over a store with overwrites and live tombstones, every
// push-down kernel agrees exactly with the corresponding linalg kernel
// run over the materialized ExportAll — across every organization kind.
func TestPushdownDifferential(t *testing.T) {
	shape := tensor.Shape{16, 12, 10}
	for _, kind := range pushKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			st := messyStore(t, kind, shape, 77)
			coords, vals, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := linalg.TensorFrom(core.COO, shape, coords, vals)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(99))

			// LiveNNZ ≡ the export's cardinality.
			kres, err := kernel(st, KernelRequest{Op: KernelLiveNNZ})
			if err != nil {
				t.Fatal(err)
			}
			nnz, rep := int64(kres.Values[0]), kres.Report
			if nnz != int64(coords.Len()) {
				t.Fatalf("LiveNNZ=%d, ExportAll has %d", nnz, coords.Len())
			}
			if rep.Cells != nnz {
				t.Fatalf("report says %d cells for %d live", rep.Cells, nnz)
			}

			// SumAll ≡ summing the export.
			kres, err = kernel(st, KernelRequest{Op: KernelSumAll})
			if err != nil {
				t.Fatal(err)
			}
			sum := kres.Values[0]
			var want float64
			for _, v := range vals {
				want += v
			}
			if sum != want {
				t.Fatalf("SumAll=%v, export sums to %v", sum, want)
			}

			// SumRegion ≡ filtering the export, over windows that
			// cover tombstoned space, interior space, and everything.
			regions := [][2][]uint64{
				{{0, 0, 0}, {16, 12, 10}},
				{{0, 0, 0}, {4, 3, 2}}, // inside the first tombstone
				{{5, 4, 3}, {6, 5, 4}},
			}
			for _, rg := range regions {
				region, err := tensor.NewRegion(shape, rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				kres, err := kernel(st, KernelRequest{Op: KernelSumRegion, Region: &region})
				if err != nil {
					t.Fatal(err)
				}
				got := kres.Values[0]
				var want float64
				for i, n := 0, coords.Len(); i < n; i++ {
					if region.Contains(coords.At(i)) {
						want += vals[i]
					}
				}
				if got != want {
					t.Fatalf("SumRegion(%v)=%v, want %v", rg, got, want)
				}
			}

			// NNZPerSlice ≡ the export's per-mode histogram.
			for mode := 0; mode < shape.Dims(); mode++ {
				kres, err := kernel(st, KernelRequest{Op: KernelNNZPerSlice, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				got := kres.Values
				want := make([]float64, shape[mode])
				for i, n := 0, coords.Len(); i < n; i++ {
					want[coords.At(i)[mode]]++
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("NNZPerSlice(%d)=%v, want %v", mode, got, want)
				}
			}

			// TTV ≡ linalg over the export, every mode.
			for mode := 0; mode < shape.Dims(); mode++ {
				vec := intVec(rng, int(shape[mode]))
				kres, err := kernel(st, KernelRequest{Op: KernelTTV, Mode: mode, Vec: vec})
				if err != nil {
					t.Fatal(err)
				}
				got, gotShape := kres.Values, kres.Shape
				want, wantShape, err := ref.TTV(mode, vec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotShape, wantShape) {
					t.Fatalf("TTV(%d) shape %v, want %v", mode, gotShape, wantShape)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TTV(%d) disagrees with linalg", mode)
				}
			}
		})
	}
}

// TestPushdownSpMVDifferential: Store.SpMV over a messy 2D store agrees
// exactly with linalg.Matrix.SpMV over the export, for every kind.
func TestPushdownSpMVDifferential(t *testing.T) {
	shape := tensor.Shape{32, 24}
	for _, kind := range pushKinds() {
		st := messyStore(t, kind, shape, 131)
		coords, vals, err := st.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		m, err := linalg.MatrixFrom(core.COO, shape, coords, vals)
		if err != nil {
			t.Fatal(err)
		}
		x := intVec(rand.New(rand.NewSource(5)), int(shape[1]))
		want, err := m.SpMV(x)
		if err != nil {
			t.Fatal(err)
		}
		kres, err := kernel(st, KernelRequest{Op: KernelSpMV, Vec: x})
		if err != nil {
			t.Fatal(err)
		}
		got, rep := kres.Values, kres.Report
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: SpMV disagrees with linalg", kind)
		}
		if rep.Cells != int64(coords.Len()) {
			t.Fatalf("%v: SpMV visited %d cells for %d live", kind, rep.Cells, coords.Len())
		}
	}

	// Shape validation.
	st := messyStore(t, core.COO, tensor.Shape{8, 8, 8}, 1)
	if _, err := kernel(st, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 8)}); err == nil {
		t.Fatal("SpMV accepted a 3-dim store")
	}
	st2 := messyStore(t, core.COO, shape, 1)
	if _, err := kernel(st2, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 7)}); err == nil {
		t.Fatal("SpMV accepted a mis-sized vector")
	}
}

// TestScanLiveMatchesExport: the serial walk delivers exactly the live
// cell set (ExportAll's content, address-keyed), and early stop works.
func TestScanLiveMatchesExport(t *testing.T) {
	shape := tensor.Shape{16, 12, 10}
	st := messyStore(t, core.CSF, shape, 7)
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]float64{}
	for i, n := 0, coords.Len(); i < n; i++ {
		want[st.lin.Linearize(coords.At(i))] = vals[i]
	}

	got := map[uint64]float64{}
	rep, err := st.ScanLive(context.Background(), nil, func(p []uint64, val float64) bool {
		a := st.lin.Linearize(p)
		if _, dup := got[a]; dup {
			t.Fatalf("ScanLive emitted %v twice", p)
		}
		got[a] = val
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanLive emitted %d cells, export has %d (or values differ)", len(got), len(want))
	}
	if rep.Cells != int64(len(want)) {
		t.Fatalf("report says %d cells, want %d", rep.Cells, len(want))
	}

	// Early stop: the report covers the visited prefix only.
	seen := 0
	rep, err = st.ScanLive(context.Background(), nil, func([]uint64, float64) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 || rep.Cells != 10 {
		t.Fatalf("early stop visited %d cells, report %d, want 10", seen, rep.Cells)
	}

	// Region-restricted walk ≡ filtering the full walk.
	region, err := tensor.NewRegion(shape, []uint64{3, 2, 1}, []uint64{8, 6, 5})
	if err != nil {
		t.Fatal(err)
	}
	wantRegion := map[uint64]float64{}
	for i, n := 0, coords.Len(); i < n; i++ {
		if region.Contains(coords.At(i)) {
			wantRegion[st.lin.Linearize(coords.At(i))] = vals[i]
		}
	}
	gotRegion := map[uint64]float64{}
	if _, err := st.ScanLive(context.Background(), &region, func(p []uint64, val float64) bool {
		gotRegion[st.lin.Linearize(p)] = val
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRegion, wantRegion) {
		t.Fatalf("region walk emitted %d cells, want %d", len(gotRegion), len(wantRegion))
	}
}

// TestKernelFoldDeterministic: a kernel is a fold over the READ loop's
// live cells in ascending linear address, so on a store with
// cross-fragment overwrites, duplicate points inside one fragment and
// tombstones — non-integer values throughout — every kernel and
// ScanLive is equal to folding the whole-store scan Query / ExportAll
// in address order, and the push report is that read's accounting:
// Cells = the result's length, Shadowed / Dead = what store.merge.*
// counted for it.
func TestKernelFoldDeterministic(t *testing.T) {
	shape := tensor.Shape{24, 20}
	whole := tensor.Region{Start: []uint64{0, 0}, Size: shape}
	window := tensor.Region{Start: []uint64{3, 2}, Size: []uint64{15, 11}}
	for _, kind := range pushKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			eachStoreConfig(t, func(t *testing.T, opts []Option) {
				reg := obs.New()
				st, err := Create(newSim(t), "t", kind, shape, append(opts[:len(opts):len(opts)], WithObs(reg))...)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(2024))
				for i := 0; i < 5; i++ {
					c, vals := randomPoints(rng, shape, 140) // ~29 % fill: fragments overlap
					for d := 0; d < 10; d++ {                // rewrite ten of its own points, later in the payload
						c.Append(c.At(rng.Intn(140))...)
						vals = append(vals, rng.NormFloat64())
					}
					if _, err := st.Write(c, vals); err != nil {
						t.Fatal(err)
					}
					if i == 1 || i == 3 {
						del := tensor.Region{Start: []uint64{uint64(4 * i), 5}, Size: []uint64{6, 9}}
						if _, err := st.DeleteRegion(del); err != nil {
							t.Fatal(err)
						}
					}
				}

				coords, vals, err := st.ExportAll()
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := readRegion(st, whole, StrategyScan)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Coords, coords) || !reflect.DeepEqual(res.Values, vals) {
					t.Fatal("whole-store scan Query and ExportAll disagree")
				}
				x := make([]float64, shape[1])
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				v0 := make([]float64, shape[0])
				for i := range v0 {
					v0[i] = rng.NormFloat64()
				}

				// want folds the export, in its (address) order, the way
				// each kernel is defined.
				inWindow := 0
				want := map[KernelOp][]float64{
					KernelSumAll:      {0},
					KernelSumRegion:   {0},
					KernelLiveNNZ:     {float64(coords.Len())},
					KernelNNZPerSlice: make([]float64, shape[1]),
					KernelSpMV:        make([]float64, shape[0]),
					KernelTTV:         make([]float64, shape[1]),
				}
				for i, n := 0, coords.Len(); i < n; i++ {
					p, v := coords.At(i), vals[i]
					want[KernelSumAll][0] += v
					if window.Contains(p) {
						want[KernelSumRegion][0] += v
						inWindow++
					}
					want[KernelNNZPerSlice][p[1]]++
					want[KernelSpMV][p[0]] += v * x[p[1]]
					want[KernelTTV][p[1]] += v * v0[p[0]]
				}
				reqs := []KernelRequest{
					{Op: KernelSumAll},
					{Op: KernelSumRegion, Region: &window},
					{Op: KernelLiveNNZ},
					{Op: KernelNNZPerSlice, Mode: 1},
					{Op: KernelSpMV, Vec: x},
					{Op: KernelTTV, Mode: 0, Vec: v0},
				}
				overwritten := reg.Counter("store.merge.overwritten", "kind", kind.String())
				tombDead := reg.Counter("store.merge.tombstone_dead", "kind", kind.String())
				for _, req := range reqs {
					ow, td := overwritten.Value(), tombDead.Value()
					kres, err := kernel(st, req)
					if err != nil {
						t.Fatalf("%v: %v", req.Op, err)
					}
					if !reflect.DeepEqual(kres.Values, want[req.Op]) {
						t.Fatalf("%v: %v, want the address-order fold %v", req.Op, kres.Values, want[req.Op])
					}
					cells := coords.Len()
					if req.Op == KernelSumRegion {
						cells = inWindow
					}
					rep := kres.Report
					if rep.Cells != int64(cells) {
						t.Fatalf("%v: report says %d cells, the result has %d", req.Op, rep.Cells, cells)
					}
					if rep.Shadowed != overwritten.Value()-ow || rep.Dead != tombDead.Value()-td {
						t.Fatalf("%v: report shadowed=%d dead=%d, store.merge.* counted %d and %d",
							req.Op, rep.Shadowed, rep.Dead, overwritten.Value()-ow, tombDead.Value()-td)
					}
					if req.Region == nil && (rep.Shadowed == 0 || rep.Dead == 0) {
						t.Fatalf("%v: the store exercises no overwrite (%d) or no tombstone (%d)", req.Op, rep.Shadowed, rep.Dead)
					}
				}

				// ScanLive is the same fold with the caller's visitor.
				got := &Result{Coords: tensor.NewCoords(shape.Dims(), 0)}
				rep, err := st.ScanLive(context.Background(), nil, func(p []uint64, val float64) bool {
					got.Coords.Append(p...)
					got.Values = append(got.Values, val)
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Coords, coords) || !reflect.DeepEqual(got.Values, vals) || rep.Cells != int64(coords.Len()) {
					t.Fatalf("ScanLive delivered %d cells (report %d), not the export's %d in its order", got.Coords.Len(), rep.Cells, coords.Len())
				}
			})
		})
	}
}

func TestPushdownEmptyStore(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	kres, err := kernel(st, KernelRequest{Op: KernelLiveNNZ})
	if err != nil {
		t.Fatal(err)
	}
	if nnz, rep := kres.Values[0], kres.Report; nnz != 0 || rep.Fragments != 0 {
		t.Fatalf("empty store: nnz=%v fragments=%d", nnz, rep.Fragments)
	}
	kres, err = kernel(st, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range kres.Values {
		if v != 0 {
			t.Fatal("empty store produced a nonzero SpMV row")
		}
	}
}

// TestKernelDenseResultBounded: a kernel whose dense answer would pass
// maxKernelValues (more than one wire frame can carry) is refused with
// ErrBadRequest before anything is allocated — an extent of 2⁶² once
// reached make() and panicked — and the store keeps answering.
func TestKernelDenseResultBounded(t *testing.T) {
	ctx := context.Background()
	huge := tensor.Shape{1 << 62, 2}
	st, err := Create(newSim(t), "t", core.COO, huge)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChunked(newSim(t), "c", core.COO, tensor.Shape{1 << 62, 4}, tensor.Shape{1024, 4})
	if err != nil {
		t.Fatal(err)
	}
	p := tensor.NewCoords(2, 0)
	p.Append(5, 1)
	if _, err := st.Write(p, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Write(p, []float64{3}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		k    interface {
			Kernel(context.Context, KernelRequest) (*KernelResult, error)
		}
		req KernelRequest
	}{
		{"chunked/nnz-per-slice", ch, KernelRequest{Op: KernelNNZPerSlice, Mode: 0}},
		{"flat/nnz-per-slice", st, KernelRequest{Op: KernelNNZPerSlice, Mode: 0}},
		{"flat/spmv", st, KernelRequest{Op: KernelSpMV, Vec: []float64{1, 1}}},
		{"flat/ttv", st, KernelRequest{Op: KernelTTV, Mode: 1, Vec: []float64{1, 1}}},
	}
	for _, tc := range cases {
		if _, err := tc.k.Kernel(ctx, tc.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
	// The bounded modes of the same stores still answer.
	for _, q := range []querier{st, ch} {
		vals, found, _, err := readPoints(q, p)
		if err != nil || !found[0] || vals[0] != 3 {
			t.Fatalf("probe after refusal: %v %v %v", vals, found, err)
		}
	}
	res, err := ch.Kernel(ctx, KernelRequest{Op: KernelNNZPerSlice, Mode: 1})
	if err != nil || !reflect.DeepEqual(res.Values, []float64{0, 1, 0, 0}) {
		t.Fatalf("chunked nnz per slice of mode 1 = %v, %v", res, err)
	}
}
