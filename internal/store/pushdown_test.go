package store

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/linalg"
	"sparseart/internal/tensor"
)

// randomIntPoints is randomPoints with small integer values: every
// kernel here is differentially checked against a parallel reduction
// whose merge order is nondeterministic, and integer-valued sums below
// 2^53 are exact regardless of association.
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
// run over the materialized ExportAll — across every organization kind,
// serial and parallel.
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

			for _, workers := range []int{1, 4} {
				// LiveNNZ ≡ the export's cardinality.
				kres, err := kernel(st, KernelRequest{Op: KernelLiveNNZ, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				nnz, rep := int64(kres.Values[0]), kres.Report
				if nnz != int64(coords.Len()) {
					t.Fatalf("workers=%d: LiveNNZ=%d, ExportAll has %d", workers, nnz, coords.Len())
				}
				if rep.Cells != nnz {
					t.Fatalf("workers=%d: report says %d cells for %d live", workers, rep.Cells, nnz)
				}

				// SumAll ≡ summing the export.
				kres, err = kernel(st, KernelRequest{Op: KernelSumAll, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sum := kres.Values[0]
				var want float64
				for _, v := range vals {
					want += v
				}
				if sum != want {
					t.Fatalf("workers=%d: SumAll=%v, export sums to %v", workers, sum, want)
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
					kres, err := kernel(st, KernelRequest{Op: KernelSumRegion, Region: &region, Workers: workers})
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
						t.Fatalf("workers=%d: SumRegion(%v)=%v, want %v", workers, rg, got, want)
					}
				}

				// NNZPerSlice ≡ the export's per-mode histogram.
				for mode := 0; mode < shape.Dims(); mode++ {
					kres, err := kernel(st, KernelRequest{Op: KernelNNZPerSlice, Mode: mode, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					got := kres.Values
					want := make([]float64, shape[mode])
					for i, n := 0, coords.Len(); i < n; i++ {
						want[coords.At(i)[mode]]++
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d: NNZPerSlice(%d)=%v, want %v", workers, mode, got, want)
					}
				}

				// TTV ≡ linalg over the export, every mode.
				for mode := 0; mode < shape.Dims(); mode++ {
					vec := intVec(rng, int(shape[mode]))
					kres, err := kernel(st, KernelRequest{Op: KernelTTV, Mode: mode, Vec: vec, Workers: workers})
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
						t.Fatalf("workers=%d: TTV(%d) disagrees with linalg", workers, mode)
					}
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
		for _, workers := range []int{1, 3} {
			kres, err := kernel(st, KernelRequest{Op: KernelSpMV, Vec: x, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, rep := kres.Values, kres.Report
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v workers=%d: SpMV disagrees with linalg", kind, workers)
			}
			if rep.Cells != int64(coords.Len()) {
				t.Fatalf("%v: SpMV visited %d cells for %d live", kind, rep.Cells, coords.Len())
			}
		}
	}

	// Shape validation.
	st := messyStore(t, core.COO, tensor.Shape{8, 8, 8}, 1)
	if _, err := kernel(st, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 8), Workers: 1}); err == nil {
		t.Fatal("SpMV accepted a 3-dim store")
	}
	st2 := messyStore(t, core.COO, shape, 1)
	if _, err := kernel(st2, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 7), Workers: 1}); err == nil {
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

// TestPushdownSnapshotIsolation: a kernel launched before a write (or a
// compaction) reflects only its pinned epoch.
func TestPushdownEmptyStore(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, tensor.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	kres, err := kernel(st, KernelRequest{Op: KernelLiveNNZ, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nnz, rep := kres.Values[0], kres.Report; nnz != 0 || rep.Fragments != 0 {
		t.Fatalf("empty store: nnz=%v fragments=%d", nnz, rep.Fragments)
	}
	kres, err = kernel(st, KernelRequest{Op: KernelSpMV, Vec: make([]float64, 8), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range kres.Values {
		if v != 0 {
			t.Fatal("empty store produced a nonzero SpMV row")
		}
	}
}
