package store

import (
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

// tombstoneFixture writes three points, deletes a region covering two
// of them, then rewrites one of the deleted cells.
func tombstoneFixture(t *testing.T, kind core.Kind) *Store {
	t.Helper()
	shape := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := Create(fs, "t", kind, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 1)
	c.Append(2, 2)
	c.Append(6, 6)
	if _, err := st.Write(c, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	region, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.DeleteRegion(region)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes <= 0 || rep.Write <= 0 {
		t.Fatalf("tombstone report: %+v", rep)
	}
	// Rewrite (2,2) after the deletion: it must come back to life.
	c2 := tensor.NewCoords(2, 0)
	c2.Append(2, 2)
	if _, err := st.Write(c2, []float64{99}); err != nil {
		t.Fatal(err)
	}
	return st
}

func expectContents(t *testing.T, res *Result, want map[[2]uint64]float64) {
	t.Helper()
	if res.Coords.Len() != len(want) {
		t.Fatalf("read %d cells, want %d", res.Coords.Len(), len(want))
	}
	for i := 0; i < res.Coords.Len(); i++ {
		p := res.Coords.At(i)
		v, ok := want[[2]uint64{p[0], p[1]}]
		if !ok || res.Values[i] != v {
			t.Fatalf("cell %v = %v, want %v (present=%v)", p, res.Values[i], v, ok)
		}
	}
}

func TestDeleteRegionAcrossKinds(t *testing.T) {
	want := map[[2]uint64]float64{
		{2, 2}: 99, // deleted then rewritten
		{6, 6}: 30, // outside the tombstone
		// (1,1) stays dead.
	}
	for _, kind := range append(core.PaperKinds(), core.BCOO) {
		t.Run(kind.String(), func(t *testing.T) {
			st := tombstoneFixture(t, kind)
			region, _ := tensor.NewRegion(st.Shape(), []uint64{0, 0}, []uint64{8, 8})

			res, _, err := readRegion(st, region, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			expectContents(t, res, want)

			scan, _, err := readRegion(st, region, StrategyScan)
			if err != nil {
				t.Fatal(err)
			}
			expectContents(t, scan, want)

			auto, _, err := readRegion(st, region, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			expectContents(t, auto, want)

			par, _, err := readPooled(st, region.Coords(), 4)
			if err != nil {
				t.Fatal(err)
			}
			expectContents(t, par, want)

			coords, vals, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			expectContents(t, &Result{Coords: coords, Values: vals}, want)
		})
	}
}

func TestReadAsOfTimeTravel(t *testing.T) {
	st := tombstoneFixture(t, core.CSF)
	probe := tensor.NewCoords(2, 0)
	probe.Append(1, 1)
	probe.Append(2, 2)
	probe.Append(6, 6)

	// Version 0: empty store.
	res, _, err := readAsOf(st, probe, 0)
	if err != nil || res.Coords.Len() != 0 {
		t.Fatalf("v0: %d cells, %v", res.Coords.Len(), err)
	}
	// Version 1: all three original points alive.
	res, _, err = readAsOf(st, probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	expectContents(t, res, map[[2]uint64]float64{{1, 1}: 10, {2, 2}: 20, {6, 6}: 30})
	// Version 2: after the tombstone, only (6,6) remains.
	res, _, err = readAsOf(st, probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	expectContents(t, res, map[[2]uint64]float64{{6, 6}: 30})
	// Version 3 (= head): (2,2) rewritten.
	res, _, err = readAsOf(st, probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	expectContents(t, res, map[[2]uint64]float64{{2, 2}: 99, {6, 6}: 30})
	// Out-of-range versions are rejected.
	if _, _, err := readAsOf(st, probe, 4); err == nil {
		t.Fatal("version beyond head accepted")
	}
	if _, _, err := readAsOf(st, probe, AsOfLatest-1); err == nil {
		t.Fatal("version below AsOfLatest accepted")
	}
}

func TestCompactFoldsTombstones(t *testing.T) {
	st := tombstoneFixture(t, core.GCSR)
	rep, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentsAfter != 1 || rep.PointsAfter != 2 {
		t.Fatalf("compact report: %+v", rep)
	}
	region, _ := tensor.NewRegion(st.Shape(), []uint64{0, 0}, []uint64{8, 8})
	res, _, err := readRegion(st, region, StrategyDefault)
	if err != nil {
		t.Fatal(err)
	}
	expectContents(t, res, map[[2]uint64]float64{{2, 2}: 99, {6, 6}: 30})
	if len(st.tombstonesBefore(st.Fragments())) != 0 {
		t.Fatal("tombstones survived compaction")
	}
}

func TestTombstonePersistsAcrossReopen(t *testing.T) {
	shape := tensor.Shape{8, 8}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(3, 3)
	if _, err := st.Write(c, []float64{7}); err != nil {
		t.Fatal(err)
	}
	region, _ := tensor.NewRegion(shape, []uint64{3, 3}, []uint64{1, 1})
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(fs, "t")
	if err != nil {
		t.Fatal(err)
	}
	vals, found, _, err := readPoints(st2, c)
	if err != nil {
		t.Fatal(err)
	}
	if found[0] {
		t.Fatalf("deleted cell visible after reopen: %v", vals[0])
	}
}

func TestDeleteRegionValidation(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{0}, Size: []uint64{1}}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := st.DeleteRegion(tensor.Region{Start: []uint64{3, 3}, Size: []uint64{4, 1}}); err == nil {
		t.Error("out-of-shape region accepted")
	}
}

func TestDeleteOnEmptyStoreIsVisible(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	region, _ := tensor.NewRegion(st.Shape(), []uint64{0, 0}, []uint64{2, 2})
	if _, err := st.DeleteRegion(region); err != nil {
		t.Fatal(err)
	}
	// A write after the tombstone is unaffected by it.
	c := tensor.NewCoords(2, 0)
	c.Append(1, 1)
	if _, err := st.Write(c, []float64{5}); err != nil {
		t.Fatal(err)
	}
	vals, found, _, err := readPoints(st, c)
	if err != nil || !found[0] || vals[0] != 5 {
		t.Fatalf("post-tombstone write lost: %v %v %v", vals, found, err)
	}
}
