package store

import (
	"math/rand"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/tensor"
)

func TestReadRegionAutoMatchesBothStrategies(t *testing.T) {
	shape := tensor.Shape{14, 14, 14}
	rng := rand.New(rand.NewSource(91))
	for _, kind := range append(core.PaperKinds(), core.BCOO) {
		t.Run(kind.String(), func(t *testing.T) {
			fs := newSim(t)
			st, err := Create(fs, "t", kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				coords, vals := randomPoints(rng, shape, 120)
				if _, err := st.Write(coords, vals); err != nil {
					t.Fatal(err)
				}
			}
			region, err := tensor.NewRegion(shape, []uint64{3, 2, 5}, []uint64{8, 9, 6})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := readProbe(st, region.Coords())
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := readRegion(st, region, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Coords.Equal(want.Coords) {
				t.Fatalf("auto found %d cells, probe %d", got.Coords.Len(), want.Coords.Len())
			}
			for i := range want.Values {
				if got.Values[i] != want.Values[i] {
					t.Fatalf("value %d differs", i)
				}
			}
			if rep.Fragments != 3 {
				t.Fatalf("fragments = %d", rep.Fragments)
			}
		})
	}
}

// TestAutoStrategySelection pins the cost-model decisions: the scan
// organizations must scan on a large window, and GCSR++ must probe on
// a tiny one.
func TestAutoStrategySelection(t *testing.T) {
	shape := tensor.Shape{32, 32}
	rng := rand.New(rand.NewSource(13))
	coords, vals := randomPoints(rng, shape, 200)

	bigRegion, err := tensor.NewRegion(shape, []uint64{0, 0}, []uint64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	tinyRegion, err := tensor.NewRegion(shape, []uint64{5, 5}, []uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		kind     core.Kind
		region   tensor.Region
		wantScan bool
	}{
		{core.COO, bigRegion, true},    // O(n·n_read) probing is hopeless
		{core.Linear, bigRegion, true}, // same
		{core.COO, tinyRegion, false},  // one probe beats a full scan
		{core.GCSR, tinyRegion, false}, // row slice beats a full scan
		{core.CSF, tinyRegion, false},  // descent beats a full scan
		{core.GCSR, bigRegion, true},   // 1024 probes × row scans > one pass
	}
	for _, tc := range cases {
		fs := newSim(t)
		st, err := Create(fs, "t", tc.kind, shape)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		_, rep, err := readRegion(st, tc.region, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		gotScan := rep.Scans > 0
		if gotScan != tc.wantScan {
			t.Errorf("%v over %v cells: scan=%v, want %v",
				tc.kind, tc.region.Size, gotScan, tc.wantScan)
		}
	}
}

func TestPreferScanModel(t *testing.T) {
	shape := tensor.Shape{512, 512, 512}
	// COO: probe cost n·n_read always exceeds a scan for n_read > 1.
	if !preferScan(core.COO, shape, 100000, 2) {
		t.Error("COO with 2 probes should scan")
	}
	if preferScan(core.COO, shape, 100000, 0) {
		t.Error("COO with <=1 effective probe should probe")
	}
	// CSF probes cost ~d each: scanning only pays off for enormous
	// regions.
	if preferScan(core.CSF, shape, 100000, 10) {
		t.Error("CSF with 10 probes should probe")
	}
	if !preferScan(core.CSF, shape, 1000, 10000) {
		t.Error("CSF with 10000 probes over 1000 points should scan")
	}
	// Unknown organizations keep the paper's probing strategy.
	if preferScan(core.Kind(99), shape, 1000, 1000000) {
		t.Error("unknown kind should not scan")
	}
}

func TestReadRegionAutoValidation(t *testing.T) {
	fs := newSim(t)
	st, err := Create(fs, "t", core.COO, tensor.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.Region{Start: []uint64{0}, Size: []uint64{1}}
	if _, _, err := readRegion(st, bad, StrategyAuto); err == nil {
		t.Fatal("rank mismatch accepted")
	}
}
