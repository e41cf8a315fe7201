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

// TestAutoStrategySelection pins the planner's pick per organization
// and window edge, on one 64³ tile holding one fragment of 16 000
// uniform points. The probe price is Table I's slope times the window's
// cells; the scan price is the points the pruned walk reaches. CSF and
// COO-sorted walks seek on the window, so they scan all but tiny
// windows; GCS's and BCOO's remapped walks visit every point, so they
// probe small windows; COO and LINEAR probe by scanning, so two cells
// already favour one pass. Cells left out sit near a tie.
func TestAutoStrategySelection(t *testing.T) {
	shape := tensor.Shape{64, 64, 64}
	coords, vals := randomPoints(rand.New(rand.NewSource(13)), shape, 16000)
	cases := []struct {
		kind        core.Kind
		probe, scan []uint64 // window edges
	}{
		{core.CSF, nil, []uint64{4, 8, 16, 32}},
		{core.COOSorted, nil, []uint64{8, 16, 32}},
		{core.GCSR, []uint64{1, 2, 4}, []uint64{16, 32}},
		{core.GCSC, []uint64{1, 2, 4}, []uint64{16, 32}},
		{core.BCOO, []uint64{1, 2, 4, 8}, []uint64{32}},
		{core.COO, nil, []uint64{2, 4, 8, 16, 32}},
		{core.Linear, nil, []uint64{2, 4, 8, 16, 32}},
	}
	for _, tc := range cases {
		st, err := Create(newSim(t), "t", tc.kind, shape)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Write(coords, vals); err != nil {
			t.Fatal(err)
		}
		for _, pick := range []struct {
			edges []uint64
			scan  bool
		}{{tc.probe, false}, {tc.scan, true}} {
			for _, edge := range pick.edges {
				start := (64 - edge) / 2
				region, err := tensor.NewRegion(shape, []uint64{start, start, start}, []uint64{edge, edge, edge})
				if err != nil {
					t.Fatal(err)
				}
				_, rep, err := readRegion(st, region, StrategyAuto)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Fragments != 1 {
					t.Fatalf("%v: read %d fragments, want 1", tc.kind, rep.Fragments)
				}
				if got := rep.Scans > 0; got != pick.scan {
					t.Errorf("%v over a %d³ window: scan=%v, want %v", tc.kind, edge, got, pick.scan)
				}
			}
		}
	}
}

func TestPreferScanModel(t *testing.T) {
	shape := tensor.Shape{512, 512, 512}
	// COO: probe cost n·n_read always exceeds a scan for n_read > 1.
	if !preferScan(core.COO, shape, 100000, 2, 1) {
		t.Error("COO with 2 probes should scan")
	}
	if preferScan(core.COO, shape, 100000, 0, 1) {
		t.Error("COO with <=1 effective probe should probe")
	}
	// CSF probes cost ~d each: a scan of the whole fragment only pays
	// off for enormous regions.
	if preferScan(core.CSF, shape, 100000, 10, 1) {
		t.Error("CSF with 10 probes should probe")
	}
	if !preferScan(core.CSF, shape, 1000, 10000, 1) {
		t.Error("CSF with 10000 probes over 1000 points should scan")
	}
	// A scan that reaches only a sliver of the fragment is priced by
	// that sliver.
	if !preferScan(core.CSF, shape, 100000, 10, 1e-6) {
		t.Error("CSF with 10 probes against a scan reaching 0.1 points should scan")
	}
	// Unknown organizations keep the paper's probing strategy.
	if preferScan(core.Kind(99), shape, 1000, 1000000, 1) {
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
