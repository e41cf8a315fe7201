package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

func TestExportAllMergesOverlaps(t *testing.T) {
	shape := tensor.Shape{6, 6}
	fs := newSim(t)
	st, err := Create(fs, "t", core.GCSR, shape)
	if err != nil {
		t.Fatal(err)
	}
	c1 := tensor.NewCoords(2, 0)
	c1.Append(1, 1)
	c1.Append(2, 2)
	if _, err := st.Write(c1, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	c2 := tensor.NewCoords(2, 0)
	c2.Append(2, 2)
	if _, err := st.Write(c2, []float64{99}); err != nil {
		t.Fatal(err)
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		t.Fatal(err)
	}
	if coords.Len() != 2 {
		t.Fatalf("exported %d cells, want 2", coords.Len())
	}
	// Sorted by address: (1,1)=10 then (2,2)=99 (newest wins).
	if coords.Get(0, 0) != 1 || vals[0] != 10 {
		t.Fatalf("cell 0 = %v %v", coords.At(0), vals[0])
	}
	if coords.Get(1, 0) != 2 || vals[1] != 99 {
		t.Fatalf("cell 1 = %v %v", coords.At(1), vals[1])
	}
}

func TestCompactConsolidatesAndPreservesContents(t *testing.T) {
	shape := tensor.Shape{10, 10, 10}
	for _, kind := range append(core.PaperKinds(), core.COOSorted) {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(kind) * 31))
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			ref := newModel(t, shape)
			for round := 0; round < 4; round++ {
				coords, vals := randomPoints(rng, shape, 60)
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
				ref.write(coords, vals)
			}
			before, _, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}

			rep, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if rep.FragmentsBefore != 4 || rep.FragmentsAfter != 1 || st.Fragments() != 1 {
				t.Fatalf("compact report %+v, fragments now %d", rep, st.Fragments())
			}
			if rep.PointsAfter != len(ref.data) || rep.PointsBefore != 240 {
				t.Fatalf("points %d -> %d, want 240 -> %d", rep.PointsBefore, rep.PointsAfter, len(ref.data))
			}
			if rep.BytesAfter >= rep.BytesBefore {
				t.Fatalf("compaction grew the store: %d -> %d", rep.BytesBefore, rep.BytesAfter)
			}

			// The logical contents are unchanged.
			after, vals, err := st.ExportAll()
			if err != nil {
				t.Fatal(err)
			}
			if !after.Equal(before) {
				t.Fatal("compaction changed the cell set")
			}
			for i := 0; i < after.Len(); i++ {
				if want := ref.data[ref.lin.Linearize(after.At(i))]; vals[i] != want {
					t.Fatalf("cell %v = %v, want %v", after.At(i), vals[i], want)
				}
			}
			// Old fragment files are gone.
			names, err := fs.List("t/frag-")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 {
				t.Fatalf("%d fragment files remain: %v", len(names), names)
			}
			// A reopened handle sees the compacted store.
			st2, err := Open(fs, "t")
			if err != nil {
				t.Fatal(err)
			}
			if st2.Fragments() != 1 {
				t.Fatalf("reopened store has %d fragments", st2.Fragments())
			}
		})
	}
}

func TestCompactSingleFragmentIsNoop(t *testing.T) {
	shape := tensor.Shape{4, 4}
	fs := newSim(t)
	st, err := Create(fs, "t", core.Linear, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)
	if _, err := st.Write(c, []float64{1}); err != nil {
		t.Fatal(err)
	}
	bytesBefore := st.TotalBytes()
	rep, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentsBefore != 1 || rep.FragmentsAfter != 1 || st.TotalBytes() != bytesBefore {
		t.Fatalf("noop compact changed the store: %+v", rep)
	}
}

func TestConvertBetweenOrganizations(t *testing.T) {
	shape := tensor.Shape{8, 8, 8}
	rng := rand.New(rand.NewSource(77))
	coords, vals := randomPoints(rng, shape, 100)
	fs := newSim(t)
	src, err := Create(fs, "src", core.COO, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Write(coords, vals); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.CSF, core.Linear, core.GCSC} {
		dst, err := Convert(src, fs, "dst-"+kind.String(), kind, WithCodec(compress.DeltaVarint))
		if err != nil {
			t.Fatal(err)
		}
		if dst.Kind() != kind {
			t.Fatalf("converted kind %v", dst.Kind())
		}
		got, gotVals, err := dst.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		want, wantVals, err := src.ExportAll()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v: contents differ after conversion", kind)
		}
		for i := range wantVals {
			if gotVals[i] != wantVals[i] {
				t.Fatalf("%v: value %d differs", kind, i)
			}
		}
	}
}

func TestConvertEmptyStore(t *testing.T) {
	fs := newSim(t)
	src, err := Create(fs, "src", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Convert(src, fs, "dst", core.CSF)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Fragments() != 0 {
		t.Fatalf("empty conversion wrote %d fragments", dst.Fragments())
	}
}

func TestReadRegionScanMatchesProbeRead(t *testing.T) {
	shape := tensor.Shape{12, 12, 12}
	rng := rand.New(rand.NewSource(55))
	for _, kind := range core.PaperKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				coords, vals := randomPoints(rng, shape, 80)
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
			}
			region, err := tensor.NewRegion(shape, []uint64{2, 1, 3}, []uint64{7, 9, 5})
			if err != nil {
				t.Fatal(err)
			}
			probe, prep, err := readRegion(st, region, StrategyDefault)
			if err != nil {
				t.Fatal(err)
			}
			scan, srep, err := readRegion(st, region, StrategyScan)
			if err != nil {
				t.Fatal(err)
			}
			if !probe.Coords.Equal(scan.Coords) {
				t.Fatalf("scan found %d cells, probe %d", scan.Coords.Len(), probe.Coords.Len())
			}
			for i := range probe.Values {
				if probe.Values[i] != scan.Values[i] {
					t.Fatalf("value %d differs", i)
				}
			}
			if srep.Found != prep.Found || srep.Fragments != prep.Fragments {
				t.Fatalf("reports disagree: scan %+v probe %+v", srep, prep)
			}
		})
	}
}

func TestReadRegionScanValidation(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.Region{Start: []uint64{0}, Size: []uint64{1}}
	if _, _, err := readRegion(st, bad, StrategyScan); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}
